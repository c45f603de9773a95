(** The pass-manager core.

    PHOENIX and every baseline compiler in this repo are sequences of the
    same kind of step — group, simplify, order, lower, route, peephole —
    so all of them are expressed as {e pipelines}: declarative lists of
    named {e passes}, each a transformation over a shared compilation
    {!ctx}.  The runner ({!run}) wall-clock-times every pass, snapshots
    the circuit metrics at each boundary into a {!trace}, and invokes
    caller-supplied {!hook}s — the pluggable instrumentation point used
    for lint and translation-validation at pass granularity.

    The framework lives in the core library so {!Compiler} itself is a
    pipeline; the registry of all pipelines (PHOENIX plus the baselines)
    is {!Phoenix_pipeline.Registry}. *)

type isa = Cnot_isa | Su4_isa

type target =
  | Logical  (** all-to-all connectivity *)
  | Hardware of Phoenix_topology.Topology.t

type options = {
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
          (the default) uses {!Phoenix_util.Parallel.num_domains} *)
  cache : Phoenix_cache.Cache.tier;
      (** content-addressed synthesis cache consulted around group
          simplification: [Off], in-memory [Mem] (the default), or
          persistent [Disk] *)
  budget : Phoenix_util.Budget.t;
      (** per-job compile budget, installed ambiently around every pass
          by {!run}; expiry degrades along {!Resilience.ladders} or, with
          no ladder, surfaces as {!Interrupted} *)
}

val default_options : options
(** CNOT ISA, logical target, [tau = 1], lookahead 10, peephole on,
    verification off, automatic domain count, in-memory synthesis
    cache. *)

val structural_isa : isa -> Phoenix_verify.Structural.isa
(** The gate alphabet a target ISA admits, as the structural validator
    and the circuit lints name it. *)

(** {1 Metric snapshots} *)

type metrics = { gates : int; one_q : int; two_q : int; depth_2q : int }

val metrics_of : Phoenix_circuit.Circuit.t -> metrics
val metrics_zero : metrics

val metrics_delta : before:metrics -> after:metrics -> metrics
(** Component-wise [after - before]; entries may be negative. *)

val metrics_add : metrics -> metrics -> metrics

(** {1 The shared compilation context} *)

type ctx = {
  n : int;  (** logical register size *)
  options : options;
  gadgets : (Phoenix_pauli.Pauli_string.t * float) list;
      (** the flat gadget program, when known *)
  term_blocks : (Phoenix_pauli.Pauli_string.t * float) list list option;
      (** algorithm-level block structure (e.g. UCCSD excitations) *)
  groups : Group.t list;  (** IR groups, once grouped *)
  blocks : Order.block list;  (** per-group synthesized circuits *)
  circuit : Phoenix_circuit.Circuit.t;  (** the evolving circuit *)
  num_swaps : int;
  logical_two_q : int;  (** pre-routing 2Q count under the target ISA *)
  recovered : int;  (** groups re-synthesized by the verified fallback *)
  layout : Phoenix_router.Layout.t option;  (** placement, once chosen *)
  diagnostics : Phoenix_verify.Diag.t list;  (** reverse chronological *)
  degradations : Resilience.event list;
      (** ladder steps taken when the budget ran out; reverse
          chronological, like [diagnostics] *)
}

val init :
  ?gadgets:(Phoenix_pauli.Pauli_string.t * float) list ->
  ?term_blocks:(Phoenix_pauli.Pauli_string.t * float) list list ->
  ?groups:Group.t list ->
  options ->
  int ->
  ctx
(** Fresh context over an [n]-qubit register with an empty circuit. *)

val add_diag : ctx -> Phoenix_verify.Diag.t -> ctx

val add_degradation : ctx -> Resilience.event -> ctx
(** Record a degradation-ladder step taken during this compile. *)

val diagf :
  ?group:int ->
  pass:string ->
  Phoenix_verify.Diag.severity ->
  ctx ->
  ('a, unit, string, ctx) format4 ->
  'a
(** Record a formatted diagnostic against the context. *)

(** {1 Pass certificates}

    Every pass carries a {e certificate}: a machine-checkable claim
    about the semantic relation between its input and output contexts,
    emitted by the pass itself and audited by the symbolic equivalence
    checker {!Phoenix_verify.Checker}, which sits below the pass layer
    and rebuilds both sides from raw gates.  The type is the checker's
    [claim], re-exported with its constructors.  The claims form a small
    lattice of rewrite freedoms over the Pauli IR's (signed Clifford
    frame × phase polynomial) abstraction:

    - {!Unchanged}: the abstraction is structurally identical on both
      sides (e.g. assembly, counting, verification passes).
    - {!Preserving}: the rotation sequence is preserved up to commuting
      exchanges, same-axis merges, and zero-rotation drops — no Trotter
      reordering (peephole, phase folding, CNOT/SU(4) lowering).
    - {!Reordering}: the phase polynomial is preserved only as per-axis
      angle sums — the Trotter-order freedom PHOENIX exploits when
      grouping and scheduling.
    - {!Routing}: a layout was chosen; the output acts on a physical
      register and must equal the input modulo the claimed qubit
      permutation (plus the freedoms above). *)

type certificate = Phoenix_verify.Checker.claim =
  | Unchanged
  | Preserving
  | Reordering
  | Routing of { l2p : int array; n_physical : int }
      (** [l2p.(logical) = physical] initial placement the pass claims
          it applied; [n_physical] is the physical register width. *)

val certificate_label : certificate -> string
(** Short stable name: ["unchanged"], ["preserving"], ["reordering"],
    ["routing"]. *)

(** {1 Passes and pipelines} *)

type t = {
  name : string;
  description : string;
  run : ctx -> ctx;
  certify : before:ctx -> after:ctx -> certificate;
      (** The pass's certificate for one executed boundary.  It may read
          both contexts (e.g. to report the layout it installed), but it
          is a {e claim}, not a proof — {!Phoenix_verify.Checker} replays
          it in the abstract domain and returns a verdict. *)
}
(** A named transformation over the context.  A pipeline is a [t list]. *)

val make :
  ?certify:(before:ctx -> after:ctx -> certificate) ->
  name:string ->
  description:string ->
  (ctx -> ctx) ->
  t
(** [certify] defaults to claiming {!Reordering} — the weakest
    non-routing claim, sound for any pass that neither routes nor
    changes the program's phase polynomial. *)

type trace_entry = {
  pass : string;
  seconds : float;  (** wall-clock time spent in the pass *)
  alloc_words : float;  (** words allocated during the pass, see {!measure} *)
  before : metrics;  (** circuit metrics entering the pass *)
  after : metrics;  (** circuit metrics leaving the pass *)
}

type trace = trace_entry list
(** One entry per executed pass, in execution order.  Because every
    circuit mutation happens inside some pass, the per-pass deltas
    telescope: starting from {!metrics_zero} (the empty circuit),
    summing {!entry_delta} over the trace reproduces the final
    circuit's metrics exactly. *)

val entry_delta : trace_entry -> metrics

val measure : (unit -> 'a) -> 'a * float * float
(** [measure f] runs [f ()] and returns its result, the wall seconds it
    took on the monotonic clock, and the words allocated meanwhile
    ({!Phoenix_util.Parallel.measure_words}): the [Gc.minor_words]
    delta plus the major − promoted delta of [Gc.counters], which
    counts direct major-heap allocations at once, on the calling domain
    and on the pool domains of every parallel map it ran (synthesis
    with [domains > 1]).  The count does not depend on the minor heap
    size or on when collections run — the checkable form of any
    "allocation-free" claim.  Every trace entry, a pass's or a template
    bind's, is measured by this one window. *)

type hook = pass:t -> before:ctx -> after:ctx -> seconds:float -> unit
(** Pluggable pass-boundary instrumentation: called after every pass
    with the contexts on both sides and the elapsed wall time.  See
    {!Phoenix_pipeline.Hooks} for ready-made lint and
    translation-validation hooks. *)

exception
  Interrupted of { pass : string; reason : Phoenix_util.Budget.reason }
(** A pass exhausted the job budget with no fallback rung available.
    The CLI maps this to exit code 5 (deadline) — see
    {!Resilience.exit_deadline} — or treats [Cancelled] as a closed
    failure. *)

exception Failed of { pass : string; error : string }
(** With [~protect:true], any other exception escaping a pass, wrapped
    with the pass name so job boundaries (CLI, chaos soak, a future
    serve daemon) report structured failures instead of raw exceptions. *)

val run : ?protect:bool -> ?hooks:hook list -> t list -> ctx -> ctx * trace
(** Execute a pipeline: fold the passes over the context, timing each
    with {!measure}, snapshotting boundary metrics (each boundary
    once: a pass's [after] is the next pass's [before]), and firing
    every hook at every boundary.  The options' [budget] is installed
    ambiently around each pass; an unabsorbed {!Budget.Interrupted}
    re-raises as {!Interrupted}.  With [protect] (default [false]),
    every other exception re-raises as {!Failed} instead of leaking. *)

(** {1 Machine-readable trace} *)

val trace_json :
  ?compiler:string ->
  ?workload:string ->
  ?cache:Phoenix_cache.Cache.stats ->
  ?degradations:Resilience.event list ->
  trace ->
  Phoenix_util.Json.t
(** Schema [phoenix-trace-v1]: per-pass seconds, allocated words and
    before/after/delta metric snapshots, plus the final metrics and
    total seconds.  When [cache] is given, the run's synthesis-cache
    counters are embedded as a ["cache"] object
    ({!Phoenix_cache.Cache.stats_json}); when [degradations] is
    non-empty, the aggregated ladder steps appear as a ["degradations"]
    array.  [compiler] and [workload] are omitted when empty. *)
