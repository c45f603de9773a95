module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Rebase = Phoenix_circuit.Rebase
module Topology = Phoenix_topology.Topology
module Sabre = Phoenix_router.Sabre
module Hamiltonian = Phoenix_ham.Hamiltonian
module Parallel = Phoenix_util.Parallel
module Clock = Phoenix_util.Clock
module Diag = Phoenix_verify.Diag
module Equiv = Phoenix_verify.Equiv
module Checker = Phoenix_verify.Checker
module Structural = Phoenix_verify.Structural
module Cache = Phoenix_cache.Cache

(* The option records are defined by the pass-manager core and re-exported
   here so every pipeline — PHOENIX and baselines alike — shares them. *)

type isa = Pass.isa = Cnot_isa | Su4_isa

type target = Pass.target = Logical | Hardware of Topology.t

type options = Pass.options = {
  isa : isa;
  target : target;
  tau : float;
  lookahead : int;
  exact : bool;
  peephole : bool;
  sabre_iterations : int;
  seed : int;
  verify : bool;
  domains : int;
  cache : Cache.tier;
  budget : Phoenix_util.Budget.t;
}

let default_options = Pass.default_options

type report = {
  circuit : Circuit.t;
  two_q_count : int;
  depth_2q : int;
  one_q_count : int;
  num_swaps : int;
  logical_two_q : int;
  num_groups : int;
  wall_time : float;
  diagnostics : Diag.t list;
  trace : Pass.trace;
  cache_stats : Cache.stats;
      (** synthesis-cache counter deltas attributable to this run *)
  degradations : Resilience.event list;
      (** budget-driven ladder steps taken during this run, in order *)
  layout : Phoenix_router.Layout.t option;
      (** final qubit placement for hardware compiles; [None] for
          logical ones *)
}

(* Verification thresholds: per-group dense checks stay cheap, the final
   end-to-end dense check follows the paper's small-n regime. *)
let group_unitary_max_qubits = 8
let final_unitary_max_qubits = 10

(* Per-group translation validation: the symbolic checker's scalable
   Pauli-propagation check always runs (an undecided verdict fails
   closed, like a refuted one); for small registers the dense unitary
   comparison backs it up.  The dense comparison is the degradable
   rung: when the budget expires inside it, the group keeps its
   propagation certificate and a ladder event records the step.  The
   propagation check itself carries no checkpoints — the terminal rung
   always completes. *)
let check_group_circuit (options : options) n terms circuit =
  match
    Checker.to_result (Checker.check_program ~exact:options.exact n terms circuit)
  with
  | Error _ as e -> (e, [])
  | Ok () ->
    if n > group_unitary_max_qubits then (Ok (), [])
    else (
      match
        Resilience.attempt (fun () -> Equiv.unitary_check n terms circuit)
      with
      | Ok r -> (r, [])
      | Error _ ->
        ( Ok (),
          [
            Resilience.event ~subject:"equivalence-check"
              ~from_rung:"dense-unitary" ~to_rung:"pauli-propagation" ();
          ] ))

(* --- PHOENIX-specific passes ------------------------------------------ *)

(* Graceful degradation: a group whose synthesized circuit fails its
   check is re-synthesized with the naive ladder (trusted, program
   order) and the recovery is recorded — the pipeline always emits a
   valid circuit instead of aborting.

   Groups are independent, so synthesis + verification fan out over a
   domain pool.  Each group's diagnostics are collected locally and
   joined in group order afterwards, so reports are byte-identical to a
   serial run whatever the scheduling.  A caller-supplied [synthesize]
   closure is not assumed to be thread-safe and keeps the serial path.

   The content-addressed synthesis cache wraps the synthesis closure:
   consulted before simplification, populated after.  A hit replays a
   previously synthesized circuit that is bit-identical to what a cold
   synthesis would produce (see [Phoenix_cache.Cache]), so the pipeline
   output does not depend on the hit pattern; cache I/O faults surface
   as per-group [Warning] diagnostics, never as failures.  A custom
   [synthesize] closure bypasses the cache — its results are not
   content-addressed by the group tableau. *)
let simplify_pass ?synthesize () =
  Pass.make
    ~certify:(fun ~before ~after:_ ->
      if before.Pass.options.exact then Pass.Preserving else Pass.Reordering)
    ~name:"simplify"
    ~description:
      "group-wise BSF simplification (Clifford2Q conjugation search) with \
       content-addressed synthesis cache, per-group translation validation \
       and naive-ladder fallback"
    (fun ctx ->
      let options = ctx.Pass.options in
      let n = ctx.Pass.n in
      let synth =
        match synthesize with
        | Some f -> f
        | None -> fun g -> Synthesis.group_circuit ~exact:options.exact g
      in
      let tier =
        match synthesize with Some _ -> Cache.Off | None -> options.cache
      in
      let checked_group (idx, (g : Group.t)) =
        let local = ref [] in
        let events = ref [] in
        let record severity msg =
          local := Diag.make ~group:idx ~pass:"simplify" severity msg :: !local
        in
        let cache_record d = local := { d with Diag.group = Some idx } :: !local in
        (* Greedy synthesis is the top rung; a budget expiry inside it
           degrades this group to the naive ladder (trusted, bounded
           time, no search).  Degraded results are never stored in the
           cache: cached entries must stay bit-identical to what a cold
           greedy synthesis would produce. *)
        let degrade_synth () =
          record Diag.Warning
            "synthesis budget exhausted; degraded greedy -> naive-ladder";
          events :=
            Resilience.event ~group:idx ~subject:"synthesis"
              ~from_rung:"greedy" ~to_rung:"naive-ladder" ()
            :: !events;
          Synthesis.naive_gadget_circuit n g.Group.terms
        in
        let c =
          match tier with
          | Cache.Off -> (
            match Resilience.attempt (fun () -> synth g) with
            | Ok c -> c
            | Error _ -> degrade_synth ())
          | Cache.Mem | Cache.Disk -> (
            let key =
              Cache.key_of_terms ~exact:options.exact n g.Group.terms
            in
            match Cache.lookup ~record:cache_record ~tier ~n key with
            | Some cached -> cached
            | None -> (
              match Resilience.attempt (fun () -> synth g) with
              | Ok c ->
                Cache.store ~record:cache_record ~tier key c;
                c
              | Error _ -> degrade_synth ()))
        in
        let check terms circuit =
          let r, evs = check_group_circuit options n terms circuit in
          if evs <> [] then
            record Diag.Warning
              "equivalence-check budget exhausted; degraded dense-unitary -> \
               pauli-propagation (certificate passed)";
          events :=
            List.rev_append
              (List.map (fun e -> { e with Resilience.group = Some idx }) evs)
              !events;
          r
        in
        if not options.verify then
          ({ Order.group = g; circuit = c }, List.rev !local, false,
           List.rev !events)
        else
          match check g.Group.terms c with
          | Ok () ->
            ({ Order.group = g; circuit = c }, List.rev !local, false,
             List.rev !events)
          | Error msg ->
            record Diag.Warning
              (Printf.sprintf
                 "synthesis failed verification (%s); recovered with the \
                  naive ladder"
                 msg);
            let fb = Synthesis.naive_gadget_circuit n g.Group.terms in
            (match check g.Group.terms fb with
            | Ok () -> ()
            | Error msg2 ->
              record Diag.Error
                (Printf.sprintf "naive fallback also failed verification (%s)"
                   msg2));
            ({ Order.group = g; circuit = fb }, List.rev !local, true,
             List.rev !events)
      in
      let domains =
        match synthesize with
        | Some _ -> 1
        | None ->
          if options.domains >= 1 then options.domains
          else Parallel.num_domains ()
      in
      let health_before = Cache.health () in
      let checked =
        Parallel.map ~domains checked_group
          (List.mapi (fun i g -> (i, g)) ctx.Pass.groups)
      in
      let blocks = List.map (fun (b, _, _, _) -> b) checked in
      let recovered = ref 0 in
      let ctx =
        List.fold_left
          (fun ctx (_, group_diags, rec_, group_events) ->
            if rec_ then incr recovered;
            let ctx = List.fold_left Pass.add_diag ctx group_diags in
            List.fold_left Pass.add_degradation ctx group_events)
          ctx checked
      in
      let ctx = { ctx with Pass.blocks; Pass.recovered = !recovered } in
      (* The cache's own ladder (disk -> mem -> off) is global health
         state; surface any step it took during this pass. *)
      let ctx =
        let rung = function
          | Cache.Full -> "disk"
          | Cache.Mem_only -> "mem"
          | Cache.No_cache -> "off"
        in
        let pos = function
          | Cache.Full -> 0
          | Cache.Mem_only -> 1
          | Cache.No_cache -> 2
        in
        let before = pos health_before
        and after = pos (Cache.health ()) in
        let rungs = [| Cache.Full; Cache.Mem_only; Cache.No_cache |] in
        let ctx = ref ctx in
        for p = before to after - 1 do
          ctx :=
            Pass.add_degradation
              (Pass.diagf ~pass:"simplify" Diag.Warning !ctx
                 "synthesis cache degraded %s -> %s" (rung rungs.(p))
                 (rung rungs.(p + 1)))
              (Resilience.event ~subject:"cache-tier" ~from_rung:(rung rungs.(p))
                 ~to_rung:(rung rungs.(p + 1)) ())
        done;
        !ctx
      in
      if options.verify && !recovered = 0 then
        Pass.diagf ~pass:"simplify" Diag.Info ctx "verified %d group circuits"
          (List.length ctx.Pass.groups)
      else ctx)

let order_pass =
  Pass.make
    ~certify:(fun ~before:_ ~after:_ -> Pass.Reordering)
    ~name:"order"
    ~description:
      "Tetris-like IR-group ordering (lookahead window, routing-aware on \
       hardware targets)"
    (fun ctx ->
      let routing_aware =
        match ctx.Pass.options.target with
        | Hardware _ -> true
        | Logical -> false
      in
      {
        ctx with
        Pass.blocks =
          Order.order ~lookahead:ctx.Pass.options.lookahead ~routing_aware
            ctx.Pass.blocks;
      })

let lower_pass =
  Pass.make
    ~certify:(fun ~before ~after:_ ->
      match before.Pass.options.target with
      | Pass.Logical -> Pass.Preserving
      | Pass.Hardware _ -> Pass.Unchanged)
    ~name:"lower"
    ~description:
      "ISA lowering: CNOT rebase + phase folding, or SU(4) fusion; on \
       hardware targets only the pre-routing 2Q count is recorded"
    (fun ctx ->
      let options = ctx.Pass.options in
      match (options.target, options.isa) with
      | Logical, Cnot_isa ->
        let c = Passes.lower_cnot options ctx.Pass.circuit in
        { ctx with Pass.circuit = c; Pass.logical_two_q = Circuit.count_2q c }
      | Logical, Su4_isa ->
        let logical_two_q = Rebase.count_su4 ctx.Pass.circuit in
        {
          ctx with
          Pass.circuit = Rebase.to_su4 ctx.Pass.circuit;
          Pass.logical_two_q = logical_two_q;
        }
      | Hardware _, Cnot_isa ->
        {
          ctx with
          Pass.logical_two_q =
            Circuit.count_2q (Passes.lower_cnot options ctx.Pass.circuit);
        }
      | Hardware _, Su4_isa ->
        { ctx with Pass.logical_two_q = Rebase.count_su4 ctx.Pass.circuit })

let route_pass =
  Pass.make
    ~certify:(fun ~before ~after ->
      match before.Pass.options.target with
      | Pass.Logical -> Pass.Unchanged
      | Pass.Hardware _ -> Passes.certify_routing ~before ~after)
    ~name:"route"
    ~description:
      "hardware-aware routing (commuting-set multistart for Z-diagonal \
       programs, SABRE refinement otherwise) and physical ISA lowering"
    (fun ctx ->
      match ctx.Pass.options.target with
      | Logical -> ctx
      | Hardware topo ->
        let options = ctx.Pass.options in
        let abstract = ctx.Pass.circuit in
        (* A fully Z-diagonal program (e.g. a QAOA cost layer) commutes
           gate-wise, so the router may reorder freely — 2QAN's lever. *)
        let z_diagonal g =
          match g with
          | Gate.G1
              ((Gate.Rz _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg), _)
            ->
            true
          | Gate.Rpp
              { p0 = Phoenix_pauli.Pauli.Z; p1 = Phoenix_pauli.Pauli.Z; _ } ->
            true
          | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _
          | Gate.Su4 _ ->
            false
        in
        let routed =
          if List.for_all z_diagonal (Circuit.gates abstract) then begin
            (* multi-start over placement seed sites; keep the routing with
               the fewest SWAPs, then lowest 2Q depth *)
            let attempt seed_site =
              let initial =
                Phoenix_router.Placement.of_circuit ~seed_site topo abstract
              in
              Sabre.route_commuting ~initial topo abstract
            in
            let score (r : Sabre.result) =
              (r.Sabre.num_swaps, Circuit.depth_2q r.Sabre.circuit)
            in
            List.fold_left
              (fun best seed_site ->
                let r = attempt seed_site in
                if score r < score best then r else best)
              (attempt 0)
              [ 11; 23; 37; 53 ]
          end
          else
            Sabre.route_with_refinement ~iterations:options.sabre_iterations
              ~lookahead:20 ~seed:options.seed topo abstract
        in
        let physical =
          match options.isa with
          | Cnot_isa -> Passes.lower_cnot options routed.Sabre.circuit
          | Su4_isa ->
            Rebase.to_su4 (Passes.maybe_peephole options routed.Sabre.circuit)
        in
        {
          ctx with
          Pass.circuit = physical;
          Pass.num_swaps = routed.Sabre.num_swaps;
          Pass.layout = Some routed.Sabre.initial_layout;
        })

let verify_pass =
  Pass.make ~certify:Passes.certify_unchanged ~name:"verify"
    ~description:
      "final translation validation: structural/ISA/coupling checks, plus \
       an end-to-end dense comparison in exact logical mode on small \
       registers"
    (fun ctx ->
      let options = ctx.Pass.options in
      let n = ctx.Pass.n in
      let isa_basis = Pass.structural_isa options.isa in
      let topology =
        match options.target with Hardware t -> Some t | Logical -> None
      in
      let structural =
        Structural.validate ~isa:isa_basis ?topology ctx.Pass.circuit
      in
      let ctx =
        if structural = [] then
          Pass.diagf ~pass:"structural" Diag.Info ctx
            "ISA alphabet, qubit range%s verified"
            (if topology = None then ""
             else " and coupling-graph compliance")
        else
          {
            ctx with
            Pass.diagnostics = List.rev_append structural ctx.Pass.diagnostics;
          }
      in
      (* End-to-end dense check: only meaningful when nothing in the
         pipeline may exercise Trotter freedom (exact mode, no routing
         permutation) and the register is small. *)
      match options.target with
      | Logical when options.exact && n <= final_unitary_max_qubits -> (
        let program =
          List.concat_map (fun g -> g.Group.terms) ctx.Pass.groups
        in
        match
          Resilience.attempt (fun () ->
              Equiv.unitary_check n program ctx.Pass.circuit)
        with
        | Ok (Ok ()) ->
          Pass.diagf ~pass:"verify" Diag.Info ctx
            "end-to-end unitary equivalence verified (n = %d)" n
        | Ok (Error msg) ->
          Pass.diagf ~pass:"verify" Diag.Error ctx
            "end-to-end check failed: %s" msg
        | Error _ -> (
          (* Budget ran out inside the dense comparison: keep the
             scalable propagation certificate instead of giving up. *)
          let ctx =
            Pass.add_degradation ctx
              (Resilience.event ~subject:"equivalence-check"
                 ~from_rung:"dense-unitary" ~to_rung:"pauli-propagation" ())
          in
          match
            Checker.to_result
              (Checker.check_program ~exact:true n program ctx.Pass.circuit)
          with
          | Ok () ->
            Pass.diagf ~pass:"verify" Diag.Warning ctx
              "budget exhausted during dense check; degraded to the \
               Pauli-propagation certificate (passed)"
          | Error msg ->
            Pass.diagf ~pass:"verify" Diag.Error ctx
              "end-to-end check failed (propagation fallback): %s" msg))
      | Logical | Hardware _ -> ctx)

(* --- the canonical pipeline ------------------------------------------- *)

let passes ?synthesize ?(with_grouping = true) (options : options) =
  List.concat
    [
      (if with_grouping then [ Passes.group ] else []);
      [ simplify_pass ?synthesize () ];
      (* Reordering IR groups is a Trotter-level transformation; exact
         mode keeps program order so the output is strictly equivalent. *)
      (if options.exact then [] else [ order_pass ]);
      [ Passes.assemble; Passes.peephole; lower_pass ];
      (match options.target with
      | Hardware _ -> [ route_pass ]
      | Logical -> []);
      (if options.verify then [ verify_pass ] else []);
    ]

(* The one run-and-fold every compile entry point shares: run a pass
   list over [ctx] and fold the finished context into a report carrying
   the run's synthesis-cache counter delta and wall time. *)
let run_passes ?protect ?hooks pipeline ctx =
  let t0 = Clock.monotonic_s () in
  let cache_before = Cache.stats () in
  let ctx, trace = Pass.run ?protect ?hooks pipeline ctx in
  let wall_time = Clock.monotonic_s () -. t0 in
  {
    circuit = ctx.Pass.circuit;
    two_q_count = Circuit.count_2q ctx.Pass.circuit;
    depth_2q = Circuit.depth_2q ctx.Pass.circuit;
    one_q_count = Circuit.count_1q ctx.Pass.circuit;
    num_swaps = ctx.Pass.num_swaps;
    logical_two_q = ctx.Pass.logical_two_q;
    num_groups = List.length ctx.Pass.groups;
    wall_time;
    diagnostics = List.rev ctx.Pass.diagnostics;
    trace;
    cache_stats = Cache.diff (Cache.stats ()) cache_before;
    degradations = List.rev ctx.Pass.degradations;
    layout = ctx.Pass.layout;
  }

let compile_groups ?(options = default_options) ?protect ?hooks ?synthesize n
    groups =
  run_passes ?protect ?hooks
    (passes ?synthesize ~with_grouping:false options)
    (Pass.init ~groups options n)

let compile_gadgets ?(options = default_options) ?protect ?hooks ?synthesize n
    gadgets =
  run_passes ?protect ?hooks (passes ?synthesize options)
    (Pass.init ~gadgets options n)

let compile_blocks ?(options = default_options) ?protect ?hooks ?synthesize n
    blocks =
  run_passes ?protect ?hooks (passes ?synthesize options)
    (Pass.init ~gadgets:(List.concat blocks) ~term_blocks:blocks options n)

(* --- streaming compilation -------------------------------------------- *)

(* One unit of streaming work: a gadget program plus (optionally) its
   algorithm-level block structure, mirroring the [compile_gadgets] /
   [compile_blocks] split — grouping semantics differ between the two,
   so the distinction must survive chunking. *)
type chunk = {
  chunk_gadgets : (Phoenix_pauli.Pauli_string.t * float) list;
  chunk_blocks : (Phoenix_pauli.Pauli_string.t * float) list list option;
}

let chunk_of_gadgets gadgets = { chunk_gadgets = gadgets; chunk_blocks = None }

let chunk_of_blocks blocks =
  { chunk_gadgets = List.concat blocks; chunk_blocks = Some blocks }

type stream_report = {
  s_report : report;
  s_chunks : int;
  s_gadgets : int;
  s_peak_heap_words : int;
  s_chunk_two_q : int list;
}

(* Merge per-chunk traces into one pipeline-shaped trace: one entry per
   pass name in first-appearance order, summing seconds, allocation and
   metric deltas and maxing the heap high-water mark.  The before/after
   snapshots are re-telescoped from the summed deltas so the trace keeps
   the telescoping invariant documented on [Pass.trace]. *)
let aggregate_traces traces =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (e : Pass.trace_entry) ->
         let d = Pass.entry_delta e in
         match Hashtbl.find_opt tbl e.Pass.pass with
         | None ->
           order := e.Pass.pass :: !order;
           Hashtbl.add tbl e.Pass.pass
             (e.Pass.seconds, e.Pass.alloc_words, e.Pass.top_heap_words, d)
         | Some (s, a, th, acc) ->
           Hashtbl.replace tbl e.Pass.pass
             ( s +. e.Pass.seconds,
               a +. e.Pass.alloc_words,
               max th e.Pass.top_heap_words,
               Pass.metrics_add acc d )))
    traces;
  let running = ref Pass.metrics_zero in
  (* first-seen pass order; the fold must run in that order too, so the
     re-telescoped snapshots accumulate left to right *)
  List.map
    (fun name ->
      let seconds, alloc_words, top_heap_words, d = Hashtbl.find tbl name in
      let before = !running in
      let after = Pass.metrics_add before d in
      running := after;
      { Pass.pass = name; seconds; alloc_words; top_heap_words; before; after })
    (List.rev !order)

let compile_stream ?(options = default_options) ?protect ?hooks
    ?(keep_circuit = true) ?emit ?pipeline n chunks =
  (match options.target with
  | Logical -> ()
  | Hardware _ ->
    invalid_arg
      "Compiler.compile_stream: streaming requires a logical target (chunks \
       route independently, and concatenating per-chunk placements is \
       unsound)");
  let pipeline =
    match pipeline with Some mk -> mk | None -> fun options -> passes options
  in
  let t0 = Clock.monotonic_s () in
  let cache_before = Cache.stats () in
  let circuits = ref [] in
  let traces = ref [] in
  let chunks_n = ref 0 in
  let gadgets_n = ref 0 in
  let peak = ref 0 in
  let two_q_rev = ref [] in
  let diags_rev = ref [] in
  let degr_rev = ref [] in
  let groups_n = ref 0 in
  let logical2q = ref 0 in
  let agg = ref Pass.metrics_zero in
  Seq.iter
    (fun chunk ->
      incr chunks_n;
      gadgets_n := !gadgets_n + List.length chunk.chunk_gadgets;
      let r =
        run_passes ?protect ?hooks (pipeline options)
          (Pass.init ~gadgets:chunk.chunk_gadgets
             ?term_blocks:chunk.chunk_blocks options n)
      in
      let c = r.circuit in
      traces := r.trace :: !traces;
      two_q_rev := r.two_q_count :: !two_q_rev;
      agg := Pass.metrics_add !agg (Pass.metrics_of c);
      diags_rev := r.diagnostics :: !diags_rev;
      degr_rev := r.degradations :: !degr_rev;
      groups_n := !groups_n + r.num_groups;
      logical2q := !logical2q + r.logical_two_q;
      (match emit with Some f -> f c | None -> ());
      if keep_circuit then circuits := c :: !circuits;
      (* Peak working set: the major heap size at every chunk boundary.
         With [keep_circuit = false] all per-chunk state is dead here,
         so this tracks the streaming mode's bounded footprint. *)
      let st = Gc.quick_stat () in
      if st.Gc.heap_words > !peak then peak := st.Gc.heap_words)
    chunks;
  let circuit =
    if keep_circuit then Circuit.concat_list n (List.rev !circuits)
    else Circuit.empty n
  in
  let trace = aggregate_traces (List.rev !traces) in
  (* Gate counts are additive under concatenation, so the aggregated
     metrics match the concatenated circuit exactly; 2Q depth is not
     additive, so report it from the real circuit when we kept one and
     as the per-chunk sum (an upper bound) otherwise. *)
  let final = if keep_circuit then Pass.metrics_of circuit else !agg in
  let report =
    {
      circuit;
      two_q_count = final.Pass.two_q;
      depth_2q = final.Pass.depth_2q;
      one_q_count = final.Pass.one_q;
      num_swaps = 0;
      logical_two_q = !logical2q;
      num_groups = !groups_n;
      wall_time = Clock.monotonic_s () -. t0;
      diagnostics = List.concat (List.rev !diags_rev);
      trace;
      cache_stats = Cache.diff (Cache.stats ()) cache_before;
      degradations = List.concat (List.rev !degr_rev);
      layout = None;
    }
  in
  {
    s_report = report;
    s_chunks = !chunks_n;
    s_gadgets = !gadgets_n;
    s_peak_heap_words = !peak;
    s_chunk_two_q = List.rev !two_q_rev;
  }

(* --- parametric compilation ------------------------------------------- *)

module Angle = Phoenix_pauli.Angle

(* A compiled circuit whose parameter-derived rotation angles are still
   symbolic [Angle] slots.  [Template.bind] patches the slots in O(slot
   sites) — no re-synthesis, re-grouping, or re-routing — and is
   bit-identical to a from-scratch compile at the bound angles (for
   generic, i.e. non-degenerate, parameter values; see [Angle]). *)
type template = {
  t_n : int;
  t_params : string array;
  t_prototype : Gate.t array;
      (* the slotted circuit's gates, in order; bind copies this *)
  t_slot_positions : int array;
      (* indices into [t_prototype] of gates carrying at least one slot *)
  t_slot_count : int; (* distinct slot expressions across the circuit *)
  t_report : report; (* the template compile's report (slotted circuit) *)
}

(* Terminal pass of a template compile: certify the slotted circuit.
   Every slot must resolve to an in-arena expression over the declared
   parameters — anything else means a slot leaked in from a foreign
   process or the caller's parameter naming is out of sync, and binding
   would fail (or silently read the wrong parameter) later. *)
let parametrize_pass ~params ~verify_requested ~certified =
  Pass.make ~certify:Passes.certify_unchanged ~name:"parametrize"
    ~description:
      "certify the slotted circuit: count slot sites, check every slot \
       resolves over the declared parameters"
    (fun ctx ->
      let arity = Array.length params in
      let ids = Hashtbl.create 32 in
      let sites = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun error -> raise (Pass.Failed { pass = "parametrize"; error }))
          fmt
      in
      List.iter
        (fun g ->
          Gate.fold_angles
            (fun () theta ->
              match Angle.view theta with
              | Angle.Const _ -> ()
              | Angle.Slot { id; _ } ->
                incr sites;
                Hashtbl.replace ids id ();
                if not (Angle.known theta) then
                  fail "slot #%d is not a known angle expression" id;
                let k = Angle.max_param_index theta in
                if k >= arity then
                  fail
                    "slot #%d references parameter %d but the template \
                     declares only %d parameter%s"
                    id k arity
                    (if arity = 1 then "" else "s"))
            () g)
        (Circuit.gates ctx.Pass.circuit);
      let ctx =
        Pass.diagf ~pass:"parametrize" Diag.Info ctx
          "template over %d parameter%s: %d slot site%s (%d distinct slots)"
          arity
          (if arity = 1 then "" else "s")
          !sites
          (if !sites = 1 then "" else "s")
          (Hashtbl.length ids)
      in
      if certified then
        Pass.diagf ~pass:"parametrize" Diag.Info ctx
          "symbolic certification: every pass boundary checked over the \
           angle arena, valid for all parameter bindings"
      else if verify_requested then
        Pass.diagf ~pass:"parametrize" Diag.Info ctx
          "verification deferred: slotted circuits cannot be checked \
           densely; verify the bound circuits instead"
      else ctx)

let count_template_slots gates =
  let ids = Hashtbl.create 32 in
  Array.iter
    (fun g ->
      Gate.fold_angles
        (fun () theta ->
          match Angle.view theta with
          | Angle.Const _ -> ()
          | Angle.Slot { id; _ } -> Hashtbl.replace ids id ())
        () g)
    gates;
  Hashtbl.length ids

let compile_template ?(options = default_options) ?protect ?hooks
    ?(certified = false) ~params n blocks =
  (* Dense/propagation verification is meaningless on symbolic angles;
     it is deferred to the bound circuits (and noted in the report) —
     unless the caller runs the symbolic certifier hook ([certified]),
     which subsumes the deferral: the certificate holds for every
     binding at once. *)
  let verify_requested = options.verify in
  let options = { options with verify = false } in
  let report =
    run_passes ?protect ?hooks
      (passes options @ [ parametrize_pass ~params ~verify_requested ~certified ])
      (Pass.init ~gadgets:(List.concat blocks) ~term_blocks:blocks options n)
  in
  (* Degraded results are never templated: a template is replayed on
     every future bind, so baking in a budget-driven fallback (naive
     ladder, parked cache tier) would make the degradation permanent
     instead of transient.  Callers should re-run with a fresh budget. *)
  (match report.degradations with
  | [] -> ()
  | evs ->
    raise
      (Pass.Failed
         {
           pass = "parametrize";
           error =
             Printf.sprintf
               "refusing to template a degraded compile (%s); templates \
                must replay full-quality results"
               (Resilience.aggregate_to_string evs);
         }));
  let prototype = Array.of_list (Circuit.gates report.circuit) in
  let slot_positions =
    let acc = ref [] in
    Array.iteri
      (fun i g -> if Gate.has_slot g then acc := i :: !acc)
      prototype;
    Array.of_list (List.rev !acc)
  in
  {
    (* After hardware routing the circuit lives on the physical
       register, which may be larger than the logical input [n]. *)
    t_n = Circuit.num_qubits report.circuit;
    t_params = Array.copy params;
    t_prototype = prototype;
    t_slot_positions = slot_positions;
    t_slot_count = count_template_slots prototype;
    t_report = report;
  }

let compile ?(options = default_options) ?protect ?hooks h =
  let n = Hamiltonian.num_qubits h in
  match Hamiltonian.gadget_blocks ~tau:options.tau h with
  | Some blocks -> compile_blocks ~options ?protect ?hooks n blocks
  | None ->
    compile_gadgets ~options ?protect ?hooks n
      (Hamiltonian.trotter_gadgets ~tau:options.tau h)
