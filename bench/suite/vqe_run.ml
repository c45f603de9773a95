(* vqe-bind: the per-iteration cost of a VQE loop.  Set-up compiles
   three templates; the timed loop binds them, one client, in-process.
   Synthesis and routing never run here, so a compile-path change must
   leave these numbers alone. *)

module Compiler = Phoenix.Compiler
module Template = Phoenix.Template
module Registry = Phoenix_pipeline.Registry
module Cache = Phoenix_cache.Cache
module Angle = Phoenix_pauli.Angle
module Hamiltonian = Phoenix_ham.Hamiltonian
module Fvec = Stats.Fvec

let programs =
  [ { Inputs.spec = "uccsd:LiH_frz_JW"; target = Inputs.Logical };
    { Inputs.spec = "uccsd:H2O_frz_BK"; target = Inputs.Logical };
    { Inputs.spec = "uccsd:LiH_frz_JW"; target = Inputs.Heavy_hex } ]

(* Every [check_every]-th bind is compared with a direct compile: about
   120 checks in a 20-second run. *)
let check_every = 5000

type tmpl = {
  prog : Compile_run.prog;
  t : Template.t;
  blocks : (Phoenix_pauli.Pauli_string.t * float) list list;
}

type setup = { tmpls : tmpl array; ham_s : float; compile_s : float; arena_growth : int; total_s : float }

let setup () =
  let t0 = Proc.now () in
  let progs, ham_s, _ = Compile_run.setup programs in
  Cache.clear_memory ();
  let arena0 = Angle.arena_size () in
  let t1 = Proc.now () in
  let tmpls =
    Array.map
      (fun (p : Compile_run.prog) ->
        match Registry.compile_template ~options:p.options ~protect:true Check.phoenix p.h with
        | Ok t -> { prog = p; t; blocks = Check.template_blocks ~options:p.options p.h }
        | Error msg -> failwith msg)
      progs
  in
  let t2 = Proc.now () in
  { tmpls; ham_s; compile_s = t2 -. t1; arena_growth = Angle.arena_size () - arena0;
    total_s = t2 -. t0 }

type measured = {
  lat_ms : Fvec.t array;
  mutable binds : int;
  mutable alloc_words : float;
  mutable samples : (int * float array * string) list;  (** template, theta, digest *)
}

let measure ?tracer ?(between = ignore) ~seed ~seconds tmpls =
  let k = Array.length tmpls in
  let m = { lat_ms = Array.init k (fun _ -> Fvec.create ()); binds = 0;
            alloc_words = 0.0; samples = [] } in
  let sched = Inputs.schedule ~seed k in
  let thetas = Inputs.theta_stream ~seed in
  let deadline = Proc.now () +. seconds in
  let bind i =
    let tm = tmpls.(i) in
    let theta = Inputs.theta thetas (Template.num_parameters tm.t) in
    let w0 = if tracer = None then 0.0 else Gc.minor_words () in
    let t0 = Proc.now () in
    let c = Template.bind tm.t theta in
    let t1 = Proc.now () in
    (match tracer with
    | None -> ()
    | Some tr ->
      m.alloc_words <- m.alloc_words +. (Gc.minor_words () -. w0);
      if m.binds mod 100 = 0 then
        ignore (Span.add tr ~layer:"bind" tm.prog.Compile_run.spec t0 t1));
    m.binds <- m.binds + 1;
    Fvec.push m.lat_ms.(i) (1e3 *. (t1 -. t0));
    if m.binds mod check_every = 0 then
      m.samples <- (i, theta, Phoenix_serve.Protocol.circuit_digest c) :: m.samples
  in
  let rounds = ref 0 in
  while !rounds = 0 || Proc.now () < deadline do
    Array.iter bind (Inputs.next_round sched);
    incr rounds;
    between ()
  done;
  m

let latencies m = Array.to_list (Array.map Fvec.to_array m.lat_ms)

let run ~seed ~seconds ~trace ?trace_out () =
  let s = setup () in
  let setups = ref [ s ] in
  let med f = Stats.median (Array.of_list (List.map f !setups)) in
  let measured_s = if trace then seconds /. 2.0 else seconds in
  let between = Proc.spaced ~seconds:measured_s (fun () -> setups := setup () :: !setups) in
  let gc0 = Proc.gc_snapshot () in
  let m = measure ~between ~seed ~seconds:measured_s s.tmpls in
  let gc = Proc.gc_metrics ~ops:m.binds gc0 (Proc.gc_snapshot ()) in
  let peak = Proc.peak_rss_mb () in
  let traced =
    if trace then begin
      let tracer = Span.create () in
      let t = measure ~tracer ~seed ~seconds:measured_s s.tmpls in
      Span.print_self_times stdout tracer;
      Option.iter (fun path -> Span.write_chrome path tracer) trace_out;
      Some t
    end
    else None
  in
  let samples = m.samples @ Option.fold ~none:[] ~some:(fun t -> t.samples) traced in
  let mismatches =
    List.length
      (List.filter
         (fun (i, theta, d) ->
           let tm = s.tmpls.(i) in
           let ok =
             Check.bind_matches ~options:tm.prog.Compile_run.options ~blocks:tm.blocks
               ~n:(Hamiltonian.num_qubits tm.prog.Compile_run.h) theta d
           in
           if not ok then
             Printf.eprintf "%s: bind differs from a direct compile\n%!" tm.prog.Compile_run.spec;
           not ok)
         samples)
  in
  let certs =
    Array.map (fun tm -> Check.certify_template ~options:tm.prog.Compile_run.options tm.prog.Compile_run.h) s.tmpls
  in
  let uncertified = Array.fold_left (fun acc (ok, _) -> if ok then acc else acc + 1) 0 certs in
  let failed = mismatches + uncertified in
  let report_sum f =
    float_of_int (Array.fold_left (fun acc tm -> acc + f (Template.report tm.t)) 0 s.tmpls)
  in
  let work f = Array.to_list (Array.map f s.tmpls) in
  let values =
    match traced with
    | None ->
      [
        ("setup_s", med (fun s -> s.total_s));
        ("latency_p50_ms", Stats.best_latency Stats.slice_count (latencies m));
        ("ops_per_s", Stats.best_rate Stats.slice_count ~work:(work (fun _ -> 1.0)) (latencies m));
        ( "gadgets_per_s",
          Stats.best_rate Stats.slice_count
            ~work:(work (fun tm -> float_of_int tm.prog.Compile_run.gadgets))
            (latencies m) );
        ("two_q_total", report_sum (fun r -> r.Compiler.two_q_count));
        ("depth_2q_total", report_sum (fun r -> r.Compiler.depth_2q));
        ("peak_rss_mb", peak);
      ]
    | Some t ->
      let all = Array.concat (Array.to_list (Array.map Fvec.to_array t.lat_ms)) in
      gc
      @ [
          ("template.compile_ms", 1e3 *. med (fun s -> s.compile_s));
          ( "template.slot_sites",
            float_of_int (Array.fold_left (fun acc tm -> acc + Template.slot_sites tm.t) 0 s.tmpls) );
          ("bind.us", 1e3 *. Stats.median all);
          ("bind.alloc_words", t.alloc_words /. float_of_int (max 1 t.binds));
          ("angle.arena_growth", float_of_int s.arena_growth);
          ("ham.build_ms", 1e3 *. med (fun s -> s.ham_s));
          ("latency_p90_ms", Stats.tail 90.0 (latencies m));
          ("latency_p99_ms", Stats.tail 99.0 (latencies m));
          ("check.certify_s", Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 certs);
          ( "trace.overhead_pct",
            100.0 *. ((Stats.typical (latencies t) /. Stats.typical (latencies m)) -. 1.0) );
        ]
  in
  let attempted = m.binds + Option.fold ~none:0 ~some:(fun t -> t.binds) traced in
  { Metrics.attempted; failed; correct = failed = 0; values }
