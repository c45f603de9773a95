(* The pipeline registry: golden-output regressions pinning the PHOENIX
   pipeline bit-for-bit to the pre-refactor compiler on the paper's
   UCCSD and QAOA presets, baseline digests through the same registry,
   the telescoping invariant of per-pass traces (deterministic over
   every registered pipeline plus a qcheck property over random gadget
   programs), and the pass-boundary hooks. *)

module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Registry = Phoenix_pipeline.Registry
module Hooks = Phoenix_pipeline.Hooks
module Finding = Phoenix_analysis.Finding
module Diag = Phoenix_verify.Diag
module Topology = Phoenix_topology.Topology

let digest c =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Gate.to_string (Circuit.gates c))))

let uccsd =
  lazy
    (let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
     Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
       b.Phoenix_ham.Molecules.spec)

let qaoa =
  lazy
    (Phoenix_ham.Qaoa.maxcut_cost
       (List.assoc "Reg3-16" (Phoenix_ham.Qaoa.benchmark_suite ())))

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "pipeline %S not registered" name

let opts ?(exact = false) ?(verify = false) ?(peephole = true) ?target ?isa ()
    =
  {
    Compiler.default_options with
    exact;
    verify;
    peephole;
    target = Option.value ~default:Compiler.Logical target;
    isa = Option.value ~default:Compiler.Cnot_isa isa;
  }

(* --- golden outputs: PHOENIX is bit-identical across the refactor ---- *)

let check_report name ~md5 ~two_q ~depth_2q ~one_q ~swaps ~logical_two_q
    (r : Compiler.report) =
  Alcotest.(check string) (name ^ " digest") md5 (digest r.Compiler.circuit);
  Alcotest.(check int) (name ^ " two_q") two_q r.Compiler.two_q_count;
  Alcotest.(check int) (name ^ " depth_2q") depth_2q r.Compiler.depth_2q;
  Alcotest.(check int) (name ^ " one_q") one_q r.Compiler.one_q_count;
  Alcotest.(check int) (name ^ " swaps") swaps r.Compiler.num_swaps;
  Alcotest.(check int)
    (name ^ " logical_two_q")
    logical_two_q r.Compiler.logical_two_q

let test_phoenix_golden_uccsd () =
  let h = Lazy.force uccsd in
  let phoenix = entry "phoenix" in
  let hh = Topology.ibm_manhattan () in
  let go options = Registry.compile ~options phoenix h in
  check_report "default" ~md5:"7d48fb3580566670e9c516844bd872e9" ~two_q:336
    ~depth_2q:318 ~one_q:932 ~swaps:0 ~logical_two_q:336
    (go (opts ()));
  check_report "exact" ~md5:"2653091b6f8d67a9652b7659c13a114e" ~two_q:366
    ~depth_2q:350 ~one_q:970 ~swaps:0 ~logical_two_q:366
    (go (opts ~exact:true ()));
  check_report "su4" ~md5:"a0d4a70295c4d7776227f594e5510949" ~two_q:339
    ~depth_2q:305 ~one_q:0 ~swaps:0 ~logical_two_q:339
    (go (opts ~isa:Compiler.Su4_isa ()));
  check_report "heavyhex" ~md5:"57a7a78f231e6e15db126a62da89880c" ~two_q:1159
    ~depth_2q:937 ~one_q:1060 ~swaps:283 ~logical_two_q:332
    (go (opts ~target:(Compiler.Hardware hh) ()));
  (* verification is pure observation: same bits as the default run *)
  check_report "verify" ~md5:"7d48fb3580566670e9c516844bd872e9" ~two_q:336
    ~depth_2q:318 ~one_q:932 ~swaps:0 ~logical_two_q:336
    (go (opts ~verify:true ()))

let test_phoenix_golden_qaoa () =
  let h = Lazy.force qaoa in
  let phoenix = entry "phoenix" in
  let hh = Topology.ibm_manhattan () in
  let go options = Registry.compile ~options phoenix h in
  check_report "default" ~md5:"af92c9b8ba1d6b29d8f558db7be67665" ~two_q:48
    ~depth_2q:22 ~one_q:24 ~swaps:0 ~logical_two_q:48
    (go (opts ()));
  check_report "exact" ~md5:"982c5d8dc8498f6d666ef2224fab3035" ~two_q:48
    ~depth_2q:14 ~one_q:24 ~swaps:0 ~logical_two_q:48
    (go (opts ~exact:true ()));
  check_report "heavyhex" ~md5:"8c595a2b87bb915b30abf42915a52533" ~two_q:115
    ~depth_2q:35 ~one_q:24 ~swaps:23 ~logical_two_q:48
    (go (opts ~target:(Compiler.Hardware hh) ()))

(* The baselines, now expressed as registry pipelines, still produce the
   exact circuits their standalone [compile] entry points did. *)
let test_baseline_golden () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  List.iter
    (fun (name, h, md5) ->
      let r = Registry.compile ~options:(opts ()) (entry name) h in
      Alcotest.(check string) name md5 (digest r.Compiler.circuit))
    [
      "naive", uccsd, "74a968258657dbd904795fe03d7ea396";
      "tket", uccsd, "0d1b45dfa30edc3f2baffcbe6230887c";
      "paulihedral", uccsd, "ae99864cbd0b832f4d12285710e8f667";
      "tetris", uccsd, "58257966247b7555aa65cee4b2f9675c";
      "naive", qaoa, "982c5d8dc8498f6d666ef2224fab3035";
      "tket", qaoa, "b840bd6a0326ade58f1ce8bca9b0137b";
      "paulihedral", qaoa, "c281a36cbab77760b6c2eea2041bb5a8";
      "tetris", qaoa, "c281a36cbab77760b6c2eea2041bb5a8";
    ];
  let r =
    Registry.compile ~options:(opts ~peephole:false ()) (entry "tket") uccsd
  in
  Alcotest.(check string) "tket nopeep" "c1baccc1f337536ba6ae9a4d8aea460c"
    (digest r.Compiler.circuit);
  let r =
    Registry.compile
      ~options:(opts ~target:(Compiler.Hardware (Topology.line 16)) ())
      (entry "2qan") qaoa
  in
  Alcotest.(check string) "2qan" "806cb3996ac06008e0c49e4f9f9de1af"
    (digest r.Compiler.circuit);
  Alcotest.(check int) "2qan swaps" 59 r.Compiler.num_swaps

(* --- the telescoping invariant of traces ----------------------------- *)

let metrics_list (m : Pass.metrics) =
  [ m.Pass.gates; m.Pass.one_q; m.Pass.two_q; m.Pass.depth_2q ]

let delta_sum trace =
  List.fold_left
    (fun acc e -> Pass.metrics_add acc (Pass.entry_delta e))
    Pass.metrics_zero trace

let telescopes (r : Compiler.report) =
  delta_sum r.Compiler.trace = Pass.metrics_of r.Compiler.circuit

let test_trace_telescopes_all_pipelines () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  let hh = Topology.ibm_manhattan () in
  List.iter
    (fun (name, h, options) ->
      let r = Registry.compile ~options (entry name) h in
      Alcotest.(check bool) (name ^ " trace nonempty") true (r.Compiler.trace <> []);
      Alcotest.(check (list int))
        (name ^ " deltas sum to final metrics")
        (metrics_list (Pass.metrics_of r.Compiler.circuit))
        (metrics_list (delta_sum r.Compiler.trace)))
    [
      "phoenix", uccsd, opts ();
      "phoenix", uccsd, opts ~target:(Compiler.Hardware hh) ();
      "phoenix", uccsd, opts ~isa:Compiler.Su4_isa ();
      "tket", uccsd, opts ();
      "paulihedral", uccsd, opts ~target:(Compiler.Hardware hh) ();
      "tetris", uccsd, opts ~isa:Compiler.Su4_isa ();
      "naive", uccsd, opts ();
      "2qan", qaoa, opts ~target:(Compiler.Hardware (Topology.line 16)) ();
    ]

let prop_trace_telescopes =
  Helpers.qtest ~count:25 "trace telescopes on random gadget programs"
    (Helpers.terms_gen 4 8) (fun terms ->
      List.for_all
        (fun name ->
          telescopes (Registry.compile_gadgets (entry name) 4 terms))
        [ "phoenix"; "tket"; "paulihedral"; "tetris"; "naive" ])

(* Pass timings in the report come straight from the trace. *)
let test_pass_times_match_trace () =
  let r =
    Registry.compile ~options:(opts ()) (entry "phoenix") (Lazy.force qaoa)
  in
  Alcotest.(check (list string))
    "pass_times names = trace order"
    (List.map (fun (e : Pass.trace_entry) -> e.Pass.pass) r.Compiler.trace)
    (List.map fst r.Compiler.pass_times)

(* --- registry surface ------------------------------------------------ *)

let test_registry_names () =
  Alcotest.(check (list string))
    "registry order"
    [ "phoenix"; "tket"; "paulihedral"; "tetris"; "2qan"; "naive" ]
    (Registry.names ())

let test_catalog_covers_all_pipelines () =
  let catalog = Registry.catalog () in
  Alcotest.(check bool) "nonempty" true (catalog <> []);
  List.iter
    (fun (c : Registry.catalog_entry) ->
      Alcotest.(check bool)
        (c.Registry.pass_name ^ " used somewhere")
        true
        (c.Registry.pipelines <> []))
    catalog;
  let used_by name =
    List.exists (fun c -> List.mem name c.Registry.pipelines) catalog
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in catalog") true (used_by name))
    (Registry.names ())

(* --- pass-boundary hooks --------------------------------------------- *)

let test_hooks_clean_on_real_pipelines () =
  let qaoa = Lazy.force qaoa in
  List.iter
    (fun name ->
      let findings = ref [] and diags = ref [] in
      let hooks = [ Hooks.lint findings; Hooks.translation_validate diags ] in
      let r = Registry.compile ~hooks ~options:(opts ()) (entry name) qaoa in
      ignore (r : Compiler.report);
      Alcotest.(check (list string))
        (name ^ " lint clean")
        []
        (List.filter_map
           (fun (pass, f) ->
             if f.Finding.severity = Finding.Error then
               Some (pass ^ ": " ^ Finding.to_string f)
             else None)
           !findings);
      Alcotest.(check (list string))
        (name ^ " translation validates")
        []
        (List.filter_map
           (fun (d : Diag.t) ->
             match d.Diag.severity with
             | Diag.Error -> Some (Diag.to_string d)
             | _ -> None)
           !diags);
      (* the validation hook actually fired *)
      Alcotest.(check bool) (name ^ " hook fired") true (!diags <> []))
    [ "phoenix"; "tket"; "paulihedral"; "tetris"; "naive" ]

(* --- Job: the request resolution both front ends share ----------------- *)

module Job = Phoenix_pipeline.Job

let workload spec =
  match Phoenix_serve.Workload.of_spec spec with
  | Ok h -> h
  | Error msg -> Alcotest.failf "%s: %s" spec msg

let test_job_topology_sizes () =
  let one_qubit =
    Phoenix_ham.Hamiltonian.make 1
      [ Phoenix_pauli.Pauli_term.make (Helpers.Pauli_string.of_string "Z") 0.5 ]
  in
  List.iter
    (fun (h, sizes) ->
      let n = Phoenix_ham.Hamiltonian.num_qubits h in
      List.iter
        (fun (name, size) ->
          match Job.resolve ~pipeline:"phoenix" ~topology:name h with
          | Error msg -> Alcotest.failf "%s: %s" name msg
          | Ok job ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s for %d qubits" name n)
              size
              (Option.map Topology.num_qubits (Job.topology job)))
        sizes)
    [
      ( workload "heisenberg:6",
        [
          ("all-to-all", None);
          ("heavy-hex", Some 64);
          ("line", Some 6);
          ("ring", Some 6);
          ("grid", Some 9);
        ] );
      ( one_qubit,
        [
          ("all-to-all", None);
          ("heavy-hex", Some 64);
          ("line", Some 2);
          ("ring", Some 3);
          ("grid", Some 1);
        ] );
    ]

let test_job_options () =
  match
    Job.resolve ~isa:Compiler.Su4_isa ~exact:true ~verify:true
      ~cache:Phoenix_cache.Cache.Off ~domains:1 ~pipeline:"tket"
      ~topology:"line" (workload "heisenberg:6")
  with
  | Error msg -> Alcotest.fail msg
  | Ok job ->
    let o = job.Job.options in
    Alcotest.(check string) "pipeline" "tket" job.Job.entry.Registry.name;
    Alcotest.(check bool)
      "request values kept" true
      (o.Compiler.isa = Compiler.Su4_isa
      && o.Compiler.exact && o.Compiler.verify
      && o.Compiler.cache = Phoenix_cache.Cache.Off
      && o.Compiler.domains = 1);
    Alcotest.(check bool)
      "hardware target" true
      (match o.Compiler.target with
      | Compiler.Hardware _ -> true
      | Compiler.Logical -> false);
    Alcotest.(check bool)
      "defaults elsewhere" true
      (o.Compiler.tau = Compiler.default_options.Compiler.tau
      && o.Compiler.lookahead = Compiler.default_options.Compiler.lookahead)

let test_job_rejections () =
  let heis = workload "heisenberg:6" and lih = workload "uccsd:LiH_frz_JW" in
  let rejected what want r =
    match r with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg -> Alcotest.(check string) what want msg
  in
  rejected "unknown topology"
    "unknown topology \"moebius\" (all-to-all, heavy-hex, line, ring, grid)"
    (Job.resolve ~pipeline:"phoenix" ~topology:"moebius" heis);
  rejected "unknown pipeline"
    "unknown pipeline \"nope\" (phoenix, tket, paulihedral, tetris, 2qan, \
     naive)"
    (Job.resolve ~pipeline:"nope" ~topology:"all-to-all" heis);
  rejected "2qan without a topology" "the 2qan pipeline needs a topology"
    (Job.resolve ~pipeline:"2qan" ~topology:"all-to-all" heis);
  rejected "2qan on a weight-3 workload"
    "the 2qan pipeline only handles 2-local workloads"
    (Job.resolve ~pipeline:"2qan" ~topology:"line" lih);
  Alcotest.(check bool)
    "2qan on a 2-local workload with a topology" true
    (Result.is_ok (Job.resolve ~pipeline:"2qan" ~topology:"line" heis));
  Alcotest.(check bool)
    "find_pipeline agrees" true
    (Job.find_pipeline "nope"
    = Error
        "unknown pipeline \"nope\" (phoenix, tket, paulihedral, tetris, \
         2qan, naive)")

(* The program a job exposes is the one [Registry.compile] compiles:
   compiling it directly gives the same circuit, for every pipeline on
   block-structured (UCCSD, Fermi-Hubbard) and flat (Heisenberg)
   workloads.  On LiH support grouping happens to rebuild the UCCSD
   blocks; on the 2x2 Hubbard lattice it does not, so there the check
   also pins which pipelines adopt blocks. *)
let test_job_program_differential () =
  List.iter
    (fun spec ->
      let h = workload spec in
      let n = Phoenix_ham.Hamiltonian.num_qubits h in
      List.iter
        (fun (e : Registry.entry) ->
          let label = spec ^ " / " ^ e.Registry.name in
          let topology =
            if e.Registry.requires_topology then "line" else "all-to-all"
          in
          match Job.resolve ~pipeline:e.Registry.name ~topology h with
          | Error msg ->
            Alcotest.(check bool)
              (label ^ " rejected only as not 2-local: " ^ msg)
              true
              (e.Registry.two_local_only
              && Phoenix_ham.Hamiltonian.max_weight h > 2)
          | Ok job ->
            let options = job.Job.options in
            let direct = Registry.compile ~options e h in
            let program = Job.program job in
            let via_program =
              match program.Compiler.chunk_blocks with
              | Some blocks -> Registry.compile_blocks ~options e n blocks
              | None ->
                Registry.compile_gadgets ~options e n
                  program.Compiler.chunk_gadgets
            in
            Alcotest.(check string) label
              (Phoenix_serve.Protocol.circuit_digest direct.Compiler.circuit)
              (Phoenix_serve.Protocol.circuit_digest
                 via_program.Compiler.circuit))
        Registry.all)
    [ "uccsd:LiH_frz_JW"; "heisenberg:6"; "fermi-hubbard:2x2" ]

let () =
  Alcotest.run "pipeline"
    [
      ( "golden",
        [
          Alcotest.test_case "phoenix uccsd" `Slow test_phoenix_golden_uccsd;
          Alcotest.test_case "phoenix qaoa" `Quick test_phoenix_golden_qaoa;
          Alcotest.test_case "baselines" `Slow test_baseline_golden;
        ] );
      ( "trace",
        [
          Alcotest.test_case "telescopes (all pipelines)" `Slow
            test_trace_telescopes_all_pipelines;
          prop_trace_telescopes;
          Alcotest.test_case "pass_times = trace" `Quick
            test_pass_times_match_trace;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "catalog" `Quick test_catalog_covers_all_pipelines;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "clean on real pipelines" `Quick
            test_hooks_clean_on_real_pipelines;
        ] );
      ( "job",
        [
          Alcotest.test_case "topology register sizes" `Quick
            test_job_topology_sizes;
          Alcotest.test_case "request options" `Quick test_job_options;
          Alcotest.test_case "rejections" `Quick test_job_rejections;
          Alcotest.test_case "program = Registry.compile (all pipelines)" `Slow
            test_job_program_differential;
        ] );
    ]
