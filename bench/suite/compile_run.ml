(* The compile workloads (uccsd-logical, hw-route, large-sparse): a
   closed loop of one client compiling in-process through the pipeline
   registry, exactly as a fresh [phoenix compile] process would — the
   memory cache is cleared before every op. *)

module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Group = Phoenix.Group
module Synthesis = Phoenix.Synthesis
module Registry = Phoenix_pipeline.Registry
module Cache = Phoenix_cache.Cache
module Hamiltonian = Phoenix_ham.Hamiltonian
module Workload = Phoenix_serve.Workload
module Topology = Phoenix_topology.Topology
module Sabre = Phoenix_router.Sabre
module Placement = Phoenix_router.Placement
module Circuit = Phoenix_circuit.Circuit
module Fvec = Stats.Fvec

(* One domain for group synthesis.  On the two-vCPU machine the bounds
   were measured on, two domains spread run-to-run latency three to four
   times wider under host contention (a descheduled vCPU stalls every
   stop-the-world minor collection), too wide to detect a 10-25%
   regression; see README.md. *)
let domains = 1

let resolve spec =
  match Workload.of_spec spec with Ok h -> h | Error msg -> failwith msg

let gadget_count h =
  match Hamiltonian.term_blocks h with
  | Some blocks -> List.fold_left (fun acc b -> acc + List.length b) 0 blocks
  | None -> List.length (Hamiltonian.trotter_gadgets h)

type prog = {
  spec : string;
  h : Hamiltonian.t;
  options : Compiler.options;
  gadgets : int;
}

(* Inputs for one run: resolve every program and build the topology.
   Returns the programs, the resolution time and the whole set-up time. *)
let setup (programs : Inputs.program list) =
  let t0 = Proc.now () in
  let hams = List.map (fun (p : Inputs.program) -> resolve p.Inputs.spec) programs in
  let ham_s = Proc.now () -. t0 in
  let hw =
    if List.exists (fun (p : Inputs.program) -> p.Inputs.target = Inputs.Heavy_hex) programs
    then Some (Compiler.Hardware (Topology.ibm_manhattan ()))
    else None
  in
  let progs =
    List.map2
      (fun (p : Inputs.program) h ->
        let target =
          match (p.Inputs.target, hw) with
          | Inputs.Heavy_hex, Some t -> t
          | _ -> Compiler.Logical
        in
        { spec = p.Inputs.spec; h; gadgets = gadget_count h;
          options = { Compiler.default_options with domains; cache = Cache.Mem; target } })
      programs hams
  in
  (Array.of_list progs, ham_s, Proc.now () -. t0)

let compile ?hooks p =
  Cache.clear_memory ();
  let t0 = Proc.now () in
  match Registry.compile ~options:p.options ~protect:true ?hooks Check.phoenix p.h with
  | r -> Ok (r, Proc.now () -. t0)
  | exception e -> Error (Printexc.to_string e)

(* What every later compile of a program must reproduce. *)
type reference = { digest : string; two_q : int; depth_2q : int; swaps : int }

(* One untimed compile per program.  A failure here is counted apart
   from the timed ops: the first parallel simplify of a process can fail
   closed on a lazy-initialisation race in [Bsf] (see README.md). *)
let warm_up progs =
  let failures = ref 0 in
  let refs =
    Array.map
      (fun p ->
        let rec attempt k =
          match compile p with
          | Ok (r, _) ->
            Some { digest = Phoenix_serve.Protocol.circuit_digest r.Compiler.circuit; two_q = r.Compiler.two_q_count;
                   depth_2q = r.Compiler.depth_2q; swaps = r.Compiler.num_swaps }
          | Error msg ->
            incr failures;
            Printf.eprintf "warm-up %s failed: %s\n%!" p.spec msg;
            if k < 3 then attempt (k + 1) else None
        in
        attempt 1)
      progs
  in
  (refs, !failures)

(* --- the timed loop ----------------------------------------------------- *)

type layer_acc = {
  pass_s : (string, float) Hashtbl.t;
  pass_alloc : (string, float) Hashtbl.t;
  order_by_prog : float array;  (** order seconds per program *)
  gadgets_by_prog : int array;
  group_us : Fvec.t;
  mutable groups : int;
  mutable synth_s : float;
  mutable sabre_s : float;
  mutable commuting_s : float;
  mutable replay_swaps : int array;  (** per program, from the router replay *)
  mutable resolve_s : float;
  mutable lookups : int;
  mutable hits : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable cache_bytes : int;
}

type measured = {
  lat_ms : Fvec.t array;  (** per program *)
  mutable ops : int;
  mutable rounds : int;
  mutable failed : int;
  mutable wall_s : float;
  mutable gadgets : int;
  acc : layer_acc;
}

let new_measured k =
  { lat_ms = Array.init k (fun _ -> Fvec.create ()); ops = 0; rounds = 0; failed = 0;
    wall_s = 0.0; gadgets = 0;
    acc =
      { pass_s = Hashtbl.create 8; pass_alloc = Hashtbl.create 8;
        order_by_prog = Array.make k 0.0; gadgets_by_prog = Array.make k 0;
        group_us = Fvec.create (); groups = 0; synth_s = 0.0; sabre_s = 0.0;
        commuting_s = 0.0; replay_swaps = Array.make k (-1); resolve_s = 0.0;
        lookups = 0; hits = 0; insertions = 0; evictions = 0; cache_bytes = 0 } }

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

(* The route pass takes the commuting-set multistart exactly when the
   routed program is Z-diagonal; the QAOA cost layers are, UCCSD is not. *)
let commuting p = String.starts_with ~prefix:"qaoa:" p.spec

(* Untimed replays of the kernels inside the op just run, on the inputs
   the pipeline gave them, each recorded as a child span of the op. *)
let replay tracer m i p ~op ~groups ~route_in =
  let a = m.acc in
  let child layer name f =
    let t0 = Proc.now () in
    let r = f () in
    let t1 = Proc.now () in
    ignore (Span.add tracer ~parent:op ~layer name t0 t1);
    (r, t1 -. t0)
  in
  List.iter
    (fun (g : Group.t) ->
      let _, s =
        child "synth" "synth.group" (fun () ->
            Synthesis.group_circuit ~exact:p.options.Compiler.exact g)
      in
      a.groups <- a.groups + 1;
      a.synth_s <- a.synth_s +. s;
      Fvec.push a.group_us (1e6 *. s))
    groups;
  (match (route_in, p.options.Compiler.target) with
  | Some circuit, Compiler.Hardware topo ->
    let (r : Sabre.result), s =
      if commuting p then
        child "router" "router.commuting" (fun () ->
            let attempt seed_site =
              Sabre.route_commuting
                ~initial:(Placement.of_circuit ~seed_site topo circuit) topo circuit
            in
            let score (r : Sabre.result) = (r.Sabre.num_swaps, Circuit.depth_2q r.Sabre.circuit) in
            List.fold_left
              (fun best site -> let r = attempt site in if score r < score best then r else best)
              (attempt 0) [ 11; 23; 37; 53 ])
      else
        child "router" "router.sabre" (fun () ->
            Sabre.route_with_refinement ~iterations:p.options.Compiler.sabre_iterations
              ~lookahead:20 ~seed:p.options.Compiler.seed topo circuit)
    in
    if commuting p then a.commuting_s <- a.commuting_s +. s else a.sabre_s <- a.sabre_s +. s;
    a.replay_swaps.(i) <- r.Sabre.num_swaps
  | _ -> ());
  let _, s = child "ham" "ham.of_spec" (fun () -> resolve p.spec) in
  a.resolve_s <- a.resolve_s +. s

(* Run whole rounds until [seconds] have passed (at least one round),
   calling [between] after each. *)
let measure ?tracer ?(between = ignore) ~seed ~seconds progs refs =
  let k = Array.length progs in
  let m = new_measured k in
  let sched = Inputs.schedule ~seed k in
  let deadline = Proc.now () +. seconds in
  let op i =
    let p = progs.(i) in
    let passes = ref [] and groups = ref [] and route_in = ref None in
    let hooks =
      match tracer with
      | None -> None
      | Some _ ->
        Some
          [ (fun ~pass ~before ~after ~seconds ->
              let t = Proc.now () in
              passes := (pass.Pass.name, t -. seconds, t) :: !passes;
              if pass.Pass.name = "group" then groups := after.Pass.groups;
              if pass.Pass.name = "route" then route_in := Some before.Pass.circuit) ]
    in
    match compile ?hooks p with
    | Error msg ->
      m.failed <- m.failed + 1;
      Printf.eprintf "%s failed: %s\n%!" p.spec msg
    | Ok (r, wall) ->
      m.ops <- m.ops + 1;
      m.wall_s <- m.wall_s +. wall;
      m.gadgets <- m.gadgets + p.gadgets;
      Fvec.push m.lat_ms.(i) (1e3 *. wall);
      (match refs.(i) with
      | Some ref_ when String.equal ref_.digest (Phoenix_serve.Protocol.circuit_digest r.Compiler.circuit) -> ()
      | _ ->
        m.failed <- m.failed + 1;
        Printf.eprintf "%s: circuit digest differs from the warm-up compile\n%!" p.spec);
      let a = m.acc in
      List.iter
        (fun (e : Pass.trace_entry) ->
          bump a.pass_s e.Pass.pass e.Pass.seconds;
          bump a.pass_alloc e.Pass.pass e.Pass.alloc_words;
          if e.Pass.pass = "order" then a.order_by_prog.(i) <- a.order_by_prog.(i) +. e.Pass.seconds)
        r.Compiler.trace;
      a.gadgets_by_prog.(i) <- a.gadgets_by_prog.(i) + p.gadgets;
      let cs = r.Compiler.cache_stats in
      a.lookups <- a.lookups + cs.Cache.hits + cs.Cache.misses;
      a.hits <- a.hits + cs.Cache.hits;
      a.insertions <- a.insertions + cs.Cache.insertions;
      a.evictions <- a.evictions + cs.Cache.evictions;
      a.cache_bytes <- max a.cache_bytes cs.Cache.bytes;
      Option.iter
        (fun tracer ->
          let t1 = Proc.now () in
          let op = Span.add tracer ~layer:"op" p.spec (t1 -. wall) t1 in
          List.iter
            (fun (name, t0, t1) -> ignore (Span.add tracer ~parent:op ~layer:("pass." ^ name) name t0 t1))
            !passes;
          replay tracer m i p ~op ~groups:!groups ~route_in:!route_in)
        tracer
  in
  while m.rounds = 0 || Proc.now () < deadline do
    Array.iter op (Inputs.next_round sched);
    m.rounds <- m.rounds + 1;
    between ()
  done;
  m

let latencies m = Array.to_list (Array.map Fvec.to_array m.lat_ms)

(* --- metrics ------------------------------------------------------------ *)

(* The run's best slice of rounds sets latency and throughput. *)
let e2e_values ~setup_s progs refs m =
  let total f = Array.fold_left (fun acc r -> acc + Option.fold ~none:0 ~some:f r) 0 refs in
  let work f = Array.to_list (Array.map (fun (p : prog) -> f p) progs) in
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", Stats.best_latency Stats.slice_count (latencies m));
    ("ops_per_s", Stats.best_rate Stats.slice_count ~work:(work (fun _ -> 1.0)) (latencies m));
    ( "gadgets_per_s",
      Stats.best_rate Stats.slice_count ~work:(work (fun p -> float_of_int p.gadgets)) (latencies m) );
    ("two_q_total", float_of_int (total (fun r -> r.two_q)));
    ("depth_2q_total", float_of_int (total (fun r -> r.depth_2q)));
  ]

let layer_values progs refs (m : measured) =
  let a = m.acc in
  let rounds = float_of_int (max 1 m.rounds) in
  let get tbl p = Option.value ~default:0.0 (Hashtbl.find_opt tbl p) in
  let pass_metrics =
    List.concat_map
      (fun p ->
        [
          ("pass." ^ p ^ ".ms", 1e3 *. get a.pass_s p /. rounds);
          ("pass." ^ p ^ ".share", get a.pass_s p /. m.wall_s);
          ("pass." ^ p ^ ".alloc_mw", get a.pass_alloc p /. 1e6 /. rounds);
        ])
      Metrics.passes
  in
  let us_per_gadget i =
    if a.gadgets_by_prog.(i) = 0 then 0.0
    else 1e6 *. a.order_by_prog.(i) /. float_of_int a.gadgets_by_prog.(i)
  in
  let index spec =
    let r = ref None in
    Array.iteri (fun i p -> if p.spec = spec then r := Some i) progs;
    !r
  in
  let growth =
    match (index "qaoa:Reg3-250", index "qaoa:Reg3-500") with
    | Some i, Some j when us_per_gadget i > 0.0 -> us_per_gadget j /. us_per_gadget i
    | _ -> 0.0
  in
  let pass_total = List.fold_left (fun acc p -> acc +. get a.pass_s p) 0.0 Metrics.passes in
  let groups = Stats.Fvec.to_array a.group_us in
  let swaps = Array.fold_left (fun acc s -> acc + max 0 s) 0 a.replay_swaps in
  Array.iteri
    (fun i s ->
      match refs.(i) with
      | Some r when s >= 0 && s <> r.swaps ->
        Printf.eprintf "%s: router replay gave %d swaps, the compile %d\n%!" progs.(i).spec s r.swaps
      | _ -> ())
    a.replay_swaps;
  pass_metrics
  @ [
      ("synth.groups", float_of_int a.groups /. rounds);
      ("synth.group_p50_us", if groups = [||] then 0.0 else Stats.median groups);
      ("synth.group_max_ms", Array.fold_left Float.max 0.0 groups /. 1e3);
      ( "synth.parallel_eff",
        let simplify = get a.pass_s "simplify" in
        if simplify > 0.0 then a.synth_s /. (simplify *. float_of_int domains) else 0.0 );
      ("router.sabre_ms", 1e3 *. a.sabre_s /. rounds);
      ("router.commuting_ms", 1e3 *. a.commuting_s /. rounds);
      ("router.swaps", float_of_int swaps);
      ( "order.us_per_gadget",
        1e6 *. get a.pass_s "order" /. float_of_int (max 1 m.gadgets) );
      ("order.growth_ratio", growth);
      ("cache.lookups", float_of_int a.lookups /. rounds);
      ( "cache.hit_ratio",
        if a.lookups = 0 then 0.0 else float_of_int a.hits /. float_of_int a.lookups );
      ("cache.insertions", float_of_int a.insertions /. rounds);
      ("cache.evictions", float_of_int a.evictions /. rounds);
      ("cache.bytes", float_of_int a.cache_bytes);
      ("ham.build_ms", 1e3 *. a.resolve_s /. rounds);
      ("trace.pass_coverage", pass_total /. m.wall_s);
    ]

let run ~(programs : Inputs.program list) ~seed ~seconds ~trace ?trace_out () =
  let setups = Fvec.create () in
  let timed_setup () =
    let progs, _, s = setup programs in
    Fvec.push setups s;
    progs
  in
  let progs = timed_setup () in
  let refs, warm_failures = warm_up progs in
  let measured_s = if trace then seconds /. 2.0 else seconds in
  let gc0 = Proc.gc_snapshot () in
  let between = Proc.spaced ~seconds:measured_s (fun () -> ignore (timed_setup ())) in
  let m = measure ~between ~seed ~seconds:measured_s progs refs in
  let setup_s = Stats.median (Fvec.to_array setups) in
  let gc = Proc.gc_metrics ~ops:m.ops gc0 (Proc.gc_snapshot ()) in
  let peak = Proc.peak_rss_mb () in
  let traced =
    if trace then begin
      let tracer = Span.create () in
      let t = measure ~tracer ~seed ~seconds:measured_s progs refs in
      Span.print_self_times stdout tracer;
      Option.iter (fun path -> Span.write_chrome path tracer) trace_out;
      Some t
    end
    else None
  in
  let certified = Array.map (fun p -> Check.certify ~options:p.options p.h) progs in
  let cert_failed = ref 0 in
  Array.iteri
    (fun i c ->
      let same = match refs.(i) with Some r -> String.equal r.digest c.Check.cert_digest | None -> false in
      if not (c.Check.proved && same) then begin
        incr cert_failed;
        Printf.eprintf "%s: certify %s\n%!" progs.(i).spec
          (if c.Check.proved then "digest differs" else "not proved")
      end)
    certified;
  let missing_refs = Array.fold_left (fun acc r -> if r = None then acc + 1 else acc) 0 refs in
  let failed =
    m.failed + !cert_failed + missing_refs
    + Option.fold ~none:0 ~some:(fun (t : measured) -> t.failed) traced
  in
  let values =
    match traced with
    | None -> ("peak_rss_mb", peak) :: e2e_values ~setup_s progs refs m
    | Some t ->
      layer_values progs refs t
      @ gc
      @ [
          ("latency_p90_ms", Stats.tail 90.0 (latencies m));
          ("latency_p99_ms", Stats.tail 99.0 (latencies m));
          ("warmup.failures", float_of_int warm_failures);
          ( "check.certify_s",
            Array.fold_left (fun acc c -> acc +. c.Check.check_s) 0.0 certified );
          ( "trace.overhead_pct",
            100.0 *. ((Stats.typical (latencies t) /. Stats.typical (latencies m)) -. 1.0) );
        ]
  in
  (* every round attempts one compile of every program *)
  let attempted =
    Array.length progs * (m.rounds + Option.fold ~none:0 ~some:(fun (t : measured) -> t.rounds) traced)
  in
  { Metrics.attempted; failed; correct = failed = 0; values }
