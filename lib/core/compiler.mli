(** The PHOENIX compilation pipeline (§IV-A):

    IR grouping → group-wise BSF simplification → Tetris-like IR group
    ordering → ISA lowering (CNOT or SU(4)) → optional hardware-aware
    routing → peephole cleanup.

    Since the pass-manager refactor this module is itself a {!Pass}
    pipeline — the canonical one.  [compile*] assemble the pass list with
    {!passes}, run it with {!Pass.run}, and fold the final context into
    the same {!report} as always; options and reports are unchanged and
    the output is bit-identical to the pre-refactor compiler.  Baseline
    pipelines reuse the shared passes ({!Passes}) and are registered
    alongside this one in [Phoenix_pipeline.Registry].

    With [verify = true] every pass boundary is translation-validated
    (see {!Phoenix_verify}): each group's synthesized circuit is checked
    against its gadgets by Pauli propagation (plus a dense unitary
    comparison on small registers), the final circuit is structurally
    validated (ISA alphabet, qubit range, coupling compliance), and in
    exact logical mode the end-to-end unitary is compared for small [n].
    A group that fails its check is re-synthesized with the naive ladder
    and the recovery recorded as a [Warning] diagnostic — compilation
    always produces a valid circuit rather than aborting. *)

type isa = Pass.isa = Cnot_isa | Su4_isa

type target = Pass.target =
  | Logical  (** all-to-all connectivity *)
  | Hardware of Phoenix_topology.Topology.t

type options = Pass.options = {
  isa : isa;
  target : target;
  tau : float;  (** Trotter step duration *)
  lookahead : int;  (** ordering look-ahead window *)
  exact : bool;
      (** strict unitary preservation: restrict local peeling to
          commuting rows and keep IR groups in program order *)
  peephole : bool;  (** run the O3-style cleanup passes *)
  sabre_iterations : int;  (** SABRE layout-refinement round trips *)
  seed : int;
  verify : bool;
      (** translation-validate every pass boundary and fall back to
          naive synthesis on per-group check failures *)
  domains : int;
      (** domains for parallel group synthesis: [1] forces serial, [0]
          (the default) uses {!Phoenix_util.Parallel.num_domains}.  The
          output is identical whatever the value: groups are compiled
          independently and joined in group order. *)
  cache : Phoenix_cache.Cache.tier;
      (** content-addressed synthesis cache wrapped around group
          simplification.  The output is identical whatever the tier or
          hit pattern: a hit replays a circuit bit-identical to a cold
          synthesis (see {!Phoenix_cache.Cache}). *)
  budget : Phoenix_util.Budget.t;
      (** per-job compile budget (default {!Phoenix_util.Budget.none}).
          On expiry, passes with a registered {!Resilience} ladder
          degrade (greedy synthesis → naive ladder, dense equivalence
          check → propagation-only) with [Warning] diagnostics and
          recorded {!Resilience.event}s; passes without one raise
          {!Pass.Interrupted}. *)
}

val default_options : options
(** CNOT ISA, logical target, [tau = 1], lookahead 10, peephole on,
    verification off, automatic domain count, in-memory synthesis
    cache. *)

type report = {
  circuit : Phoenix_circuit.Circuit.t;  (** final lowered circuit *)
  two_q_count : int;
      (** #CNOT under [Cnot_isa]; #SU(4) blocks under [Su4_isa] *)
  depth_2q : int;
  one_q_count : int;
  num_swaps : int;  (** 0 for logical compilation *)
  logical_two_q : int;
      (** 2Q count of the logical-level result, for routing-overhead
          ratios *)
  num_groups : int;
  wall_time : float;  (** elapsed wall-clock seconds spent compiling *)
  pass_times : (string * float) list;
      (** per-pass wall-clock seconds in pipeline order — ["group"],
          ["simplify"], ["order"], ["assemble"], ["peephole"],
          ["lower"], ["route"], ["verify"]; passes that did not run are
          absent *)
  diagnostics : Phoenix_verify.Diag.t list;
      (** chronological; empty unless [options.verify] *)
  trace : Pass.trace;
      (** the full instrumented pass trace: per-pass seconds plus
          before/after circuit-metric snapshots *)
  cache_stats : Phoenix_cache.Cache.stats;
      (** synthesis-cache counter deltas (hits/misses/disk
          hits/errors/evictions/insertions) attributable to this run,
          plus the resident entry/byte gauges at completion *)
  degradations : Resilience.event list;
      (** chronological ladder steps taken because the budget ran out;
          empty on an undisturbed run *)
  layout : Phoenix_router.Layout.t option;
      (** final logical→physical placement for hardware compiles ([Some]
          whenever routing ran); [None] for logical compiles.  Consumed
          by the translation-validation analysis to relabel routed
          circuits back onto the logical register. *)
}

val run_passes :
  ?protect:bool -> ?hooks:Pass.hook list -> Pass.t list -> Pass.ctx -> report
(** Run a pass list over [ctx] with {!Pass.run} and fold the finished
    context into the common report, with this run's synthesis-cache
    counter delta and wall time.  Every compile entry point — PHOENIX's
    and the registry's (see [Phoenix_pipeline.Registry]) — reports
    through it. *)

val passes :
  ?synthesize:(Group.t -> Phoenix_circuit.Circuit.t) ->
  ?with_grouping:bool ->
  options ->
  Pass.t list
(** The canonical PHOENIX pipeline for [options], as a declarative pass
    list: grouping (unless [with_grouping = false], for pre-grouped
    input), simplify, ordering (skipped in exact mode), assembly,
    peephole, ISA lowering, routing (hardware targets only), and final
    verification (when [options.verify]). *)

val compile :
  ?options:options ->
  ?protect:bool ->
  ?hooks:Pass.hook list ->
  Phoenix_ham.Hamiltonian.t ->
  report
(** [hooks] (here and below) are {!Pass.hook} pass-boundary
    instrumentation, fired after every pass.  [protect] (here and below,
    default [false]) is {!Pass.run}'s fail-closed mode: unexpected
    exceptions escaping a pass re-raise as {!Pass.Failed} with the pass
    named. *)

val compile_gadgets :
  ?options:options ->
  ?protect:bool ->
  ?hooks:Pass.hook list ->
  ?synthesize:(Group.t -> Phoenix_circuit.Circuit.t) ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  report
(** Compile an explicit gadget program over [n] qubits, grouping by
    support. *)

val compile_blocks :
  ?options:options ->
  ?protect:bool ->
  ?hooks:Pass.hook list ->
  ?synthesize:(Group.t -> Phoenix_circuit.Circuit.t) ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list list ->
  report
(** Compile with caller-supplied algorithm-level blocks as IR groups.
    [compile] uses this automatically when the Hamiltonian records block
    structure (UCCSD ansatzes do). *)

val compile_groups :
  ?options:options ->
  ?protect:bool ->
  ?hooks:Pass.hook list ->
  ?synthesize:(Group.t -> Phoenix_circuit.Circuit.t) ->
  int ->
  Group.t list ->
  report
(** Lowest-level entry point.  [synthesize] overrides per-group circuit
    synthesis (default {!Synthesis.group_circuit}); it exists for
    experimentation and fault injection — with [verify = true] a
    synthesizer that produces a wrong circuit is caught per group and
    recovered via the naive ladder.  Supplying [synthesize] forces
    serial group compilation (the closure is not assumed thread-safe). *)

(** {1 Streaming compilation}

    Whole-program compilation materializes every gadget, group and block
    at once — for a deep Trotter circuit the working set grows linearly
    with the step count even though every step compiles identically.
    Streaming mode instead feeds the pipeline one {!chunk} at a time
    (typically one Trotter step), runs the full pass list per chunk —
    so tracing, lint/certify hooks, the synthesis cache and resilience
    budgets all keep working at chunk granularity — and either
    concatenates the per-chunk circuits or hands each to [emit] and
    drops it, bounding peak memory by the chunk size.

    Contract: a single-chunk stream is bit-identical to the matching
    whole-program entry point ([compile_blocks] when the chunk carries
    blocks, [compile_gadgets] otherwise), and a multi-chunk stream is
    bit-identical to the concatenation of the chunks' independent
    compiles.  A whole-program compile of the {e concatenated} gadget
    list is a different program — grouping would merge rotations across
    chunk boundaries — so that equality is intentionally not promised. *)

type chunk = {
  chunk_gadgets : (Phoenix_pauli.Pauli_string.t * float) list;
      (** the chunk's gadget program, in order *)
  chunk_blocks : (Phoenix_pauli.Pauli_string.t * float) list list option;
      (** algorithm-level block structure when known; its presence
          selects [compile_blocks]-style grouping for the chunk *)
}

val chunk_of_gadgets : (Phoenix_pauli.Pauli_string.t * float) list -> chunk

val chunk_of_blocks :
  (Phoenix_pauli.Pauli_string.t * float) list list -> chunk

type stream_report = {
  s_report : report;
      (** aggregated over the whole stream: the concatenated circuit
          (empty when [keep_circuit = false]; gate counts then come
          from per-chunk sums and [depth_2q] is the per-chunk sum, an
          upper bound), merged trace, summed cache stats, chronological
          diagnostics and degradations, [layout = None] *)
  s_chunks : int;  (** chunks consumed *)
  s_gadgets : int;  (** total gadgets consumed across all chunks *)
  s_peak_heap_words : int;
      (** max [Gc.quick_stat].heap_words observed at chunk boundaries —
          the bounded-footprint signal the scaling bench asserts on *)
  s_chunk_two_q : int list;  (** per-chunk 2Q counts, in stream order *)
}

val compile_stream :
  ?options:options ->
  ?protect:bool ->
  ?hooks:Pass.hook list ->
  ?keep_circuit:bool ->
  ?emit:(Phoenix_circuit.Circuit.t -> unit) ->
  ?pipeline:(options -> Pass.t list) ->
  int ->
  chunk Seq.t ->
  stream_report
(** Compile a lazy chunk stream over [n] qubits.  Each chunk runs the
    canonical pipeline via {!run_passes} with the given [hooks], exactly
    as [compile_gadgets]/[compile_blocks] would; [pipeline] overrides
    the pass list per chunk (the registry streams baselines with it).  [emit] is called with
    each chunk's finished circuit in stream order; with [keep_circuit =
    false] (default [true]) the circuit is dropped after [emit] and the
    aggregate report carries an empty circuit, keeping peak memory
    bounded by the largest chunk rather than the whole program.  The
    merged trace has one entry per pass name (seconds, allocation and
    metric deltas summed across chunks; heap high-water maxed).

    Raises [Invalid_argument] for hardware targets: chunks route
    independently, and concatenating per-chunk placements is unsound.
    Streaming is a logical-target mode; route the concatenated circuit
    separately if needed. *)

(** {1 Parametric compilation} *)

type template = {
  t_n : int;  (** register size of the compiled circuit (physical, if routed) *)
  t_params : string array;
  t_prototype : Phoenix_circuit.Gate.t array;
  t_slot_positions : int array;
  t_slot_count : int;
  t_report : report;
}
(** A compiled circuit whose parameter-derived rotation angles are still
    symbolic {!Phoenix_pauli.Angle} slots.  Prefer the {!Template} module
    for binding and inspection; the record is exposed so [Template] can
    live outside this module without an extra indirection. *)

val compile_template :
  ?options:options ->
  ?protect:bool ->
  ?hooks:Pass.hook list ->
  ?certified:bool ->
  params:string array ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list list ->
  template
(** Run the canonical pipeline over gadget blocks whose angles may be
    {!Phoenix_pauli.Angle} slots (built with [Angle.param]), then certify
    the result with a terminal [parametrize] pass (slot-site census +
    parameter-arity check, visible in the trace).  [params] names the
    template's parameters; every slot must resolve over them.

    Dense verification is forced off for the template compile itself
    (symbolic angles cannot be checked densely).  Pass [certified = true]
    when a symbolic translation-validation hook (Phoenix_tv's certify
    hook) runs alongside the compile: the deferral diagnostic is replaced
    by a note that every pass boundary was checked symbolically — valid
    for all parameter bindings at once — instead of deferring to the
    bound circuits.  A compile that took any degradation-ladder step
    raises {!Pass.Failed} rather than producing a template: binds replay
    the template forever, so a degraded result must stay transient.
    Budget expiry raises {!Pass.Interrupted} as usual and never yields a
    partial template. *)
