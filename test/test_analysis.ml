(* The static analyzer: clean bills of health for every compiler's
   output, fault-injection coverage for every defect class an analysis
   exists to catch, and the compiler-internal tableau/determinism
   audits. *)

module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Clifford2q = Helpers.Clifford2q
module Bsf = Helpers.Bsf
module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Topology = Phoenix_topology.Topology
module Sabre = Phoenix_router.Sabre
module Compiler = Phoenix.Compiler
module Pipelines = Phoenix_pipeline.Registry
module Structural = Phoenix_verify.Structural
module Finding = Phoenix_analysis.Finding
module Circuit_lint = Phoenix_analysis.Circuit_lint
module Determinism = Phoenix_analysis.Determinism
module Registry = Phoenix_analysis.Registry
module Cache = Phoenix_cache.Cache
module Cache_audit = Phoenix_analysis.Cache_audit

(* Exercise the PHOENIX_BSF_AUDIT debug mode for the whole binary:
   every tableau mutation in these tests self-audits. *)
let () = Unix.putenv "PHOENIX_BSF_AUDIT" "1"

let ps = Pauli_string.of_string

let heisenberg n = Phoenix_ham.Spin_models.heisenberg_chain n

let lint ?isa ?topology ?declared c =
  Registry.run (Circuit_lint.target ?isa ?topology ?declared c)

let check_no_errors msg findings =
  Alcotest.(check (list string))
    msg []
    (List.map Finding.to_string (Finding.errors findings))

let declared_of (r : Compiler.report) =
  {
    Circuit_lint.two_q = r.Compiler.two_q_count;
    depth_2q = r.Compiler.depth_2q;
    one_q = r.Compiler.one_q_count;
  }

(* --- clean lints over real compilations --------------------------------- *)

let test_phoenix_logical_clean () =
  let h = heisenberg 6 in
  List.iter
    (fun (isa, lint_isa, tag) ->
      let options = { Compiler.default_options with isa } in
      let r = Pipelines.compile ~options Pipelines.phoenix h in
      check_no_errors tag
        (lint ~isa:lint_isa ~declared:(declared_of r) r.Compiler.circuit))
    [
      Compiler.Cnot_isa, Circuit_lint.Cnot_basis, "cnot isa";
      Compiler.Su4_isa, Circuit_lint.Su4_basis, "su4 isa";
    ]

let test_phoenix_routed_clean () =
  let topo = Topology.line 8 in
  let options =
    { Compiler.default_options with target = Compiler.Hardware topo }
  in
  let r = Pipelines.compile ~options Pipelines.phoenix (heisenberg 8) in
  check_no_errors "routed phoenix"
    (lint ~isa:Circuit_lint.Cnot_basis ~topology:topo
       ~declared:(declared_of r) r.Compiler.circuit)

let test_baselines_clean () =
  let h = heisenberg 8 in
  let n = 8 in
  let gadgets = Phoenix_ham.Hamiltonian.trotter_gadgets h in
  let topo = Topology.line n in
  let compile ?options entry =
    (Pipelines.compile_gadgets ?options entry n gadgets).Compiler.circuit
  in
  let logical =
    List.map
      (fun (e : Pipelines.entry) -> e.Pipelines.name, compile e)
      Pipelines.[ tket; paulihedral; tetris; naive ]
  in
  List.iter
    (fun (name, c) ->
      check_no_errors (name ^ " logical")
        (lint ~isa:Circuit_lint.Cnot_basis c);
      let routed = Sabre.route_with_refinement topo c in
      let final =
        Phoenix_circuit.Lowering.(run [ Rebase; Peephole ])
          routed.Sabre.circuit
      in
      check_no_errors (name ^ " routed")
        (lint ~isa:Circuit_lint.Cnot_basis ~topology:topo final))
    logical;
  let options =
    { Compiler.default_options with target = Compiler.Hardware topo }
  in
  check_no_errors "2qan routed"
    (lint ~isa:Circuit_lint.Cnot_basis ~topology:topo
       (compile ~options Pipelines.qan2))

(* --- fault injection: circuit-level analyses ---------------------------- *)

let compiled_heisenberg () =
  let r = Pipelines.compile Pipelines.phoenix (heisenberg 6) in
  r.Compiler.circuit, declared_of r

let test_catches_out_of_isa_gate () =
  let c, declared = compiled_heisenberg () in
  let bad =
    Circuit.append c
      (Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Z; a = 0; b = 1; theta = 0.4 })
  in
  let findings = lint ~isa:Circuit_lint.Cnot_basis ~declared bad in
  Alcotest.(check bool)
    "isa violation flagged" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.analysis = "isa-conformance"
         && f.Finding.severity = Finding.Error)
       findings);
  (* the appended 2Q gate also breaks the declared metrics *)
  Alcotest.(check bool)
    "metrics drift flagged" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.analysis = "metrics-certification")
       (Finding.errors findings))

(* Delete one SWAP and relabel everything after it through the
   transposition it implemented — the classic stale-layout addresser
   bug.  The circuit still "reads" fine gate by gate; only coupling
   conformance can see the damage. *)
let drop_swap_with_stale_layout c =
  let arr = Circuit.gate_array c in
  let n = Circuit.num_qubits c in
  let idx =
    let found = ref None in
    Array.iteri
      (fun i g ->
        match g, !found with Gate.Swap _, None -> found := Some i | _ -> ())
      arr;
    !found
  in
  match idx with
  | None -> None
  | Some i ->
    let a, b =
      match arr.(i) with Gate.Swap (a, b) -> a, b | _ -> assert false
    in
    let relabel q = if q = a then b else if q = b then a else q in
    let prefix = Array.to_list (Array.sub arr 0 i) in
    let suffix = Array.to_list (Array.sub arr (i + 1) (Array.length arr - i - 1)) in
    Some
      (Circuit.concat (Circuit.create n prefix)
         (Circuit.map_qubits relabel (Circuit.create n suffix)))

let test_catches_dropped_swap () =
  (* Deterministic core case: line 0-1-2-3; dropping the SWAP(1,2) and
     relabelling leaves CNOT(1,3), which is off the coupling graph. *)
  let topo = Topology.line 4 in
  let c =
    Circuit.create 4 [ Gate.Cnot (0, 1); Gate.Swap (1, 2); Gate.Cnot (2, 3) ]
  in
  check_no_errors "valid before" (lint ~topology:topo c);
  (match drop_swap_with_stale_layout c with
  | None -> Alcotest.fail "no swap found"
  | Some bad ->
    Alcotest.(check bool)
      "stale layout flagged" true
      (List.exists
         (fun (f : Finding.t) -> f.Finding.analysis = "coupling-conformance")
         (Finding.errors (lint ~topology:topo bad))));
  (* And on a genuinely routed circuit: CNOT(0,3) on a line forces SABRE
     to insert at least one SWAP. *)
  let logical =
    Circuit.create 4
      [ Gate.Cnot (0, 3); Gate.Cnot (0, 1); Gate.Cnot (2, 3); Gate.Cnot (0, 3) ]
  in
  let routed = (Sabre.route_with_refinement topo logical).Sabre.circuit in
  check_no_errors "routed valid" (lint ~topology:topo routed);
  match drop_swap_with_stale_layout routed with
  | None -> Alcotest.fail "routing inserted no swap"
  | Some bad ->
    Alcotest.(check bool)
      "dropped swap flagged" true
      (Finding.has_errors (lint ~topology:topo bad))

let test_catches_nan_angle () =
  let c, _ = compiled_heisenberg () in
  let bad = Circuit.append c (Gate.G1 (Gate.Rz Float.nan, 0)) in
  Alcotest.(check bool)
    "nan flagged as error" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.analysis = "angle-sanity")
       (Finding.errors (lint ~isa:Circuit_lint.Cnot_basis bad)))

let test_zero_angle_is_warning_only () =
  let c, _ = compiled_heisenberg () in
  let sloppy = Circuit.append c (Gate.G1 (Gate.Rz 0.0, 0)) in
  let findings = lint ~isa:Circuit_lint.Cnot_basis sloppy in
  Alcotest.(check bool) "no errors" false (Finding.has_errors findings);
  Alcotest.(check bool)
    "missed optimization warned" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.analysis = "angle-sanity"
         && f.Finding.severity = Finding.Warning)
       findings)

let test_catches_metrics_drift () =
  let c, declared = compiled_heisenberg () in
  let wrong = { declared with Circuit_lint.two_q = declared.Circuit_lint.two_q + 1 } in
  Alcotest.(check bool)
    "drift flagged" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.analysis = "metrics-certification")
       (Finding.errors (lint ~declared:wrong c)))

let test_catches_dangling_qubit () =
  let c, _ = compiled_heisenberg () in
  let padded = Circuit.with_num_qubits (Circuit.num_qubits c + 1) c in
  let findings = lint padded in
  Alcotest.(check bool) "warning only" false (Finding.has_errors findings);
  Alcotest.(check bool)
    "dangling wire warned" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.analysis = "liveness"
         && f.Finding.location = Finding.Qubit (Circuit.num_qubits c))
       findings);
  (* idle physical qubits are normal on hardware targets *)
  Alcotest.(check int)
    "hardware targets exempt" 0
    (List.length
       (List.filter
          (fun (f : Finding.t) -> f.Finding.analysis = "liveness")
          (lint ~topology:(Topology.line 8) padded)))

let test_registry_selection () =
  let c, _ = compiled_heisenberg () in
  let bad = Circuit.append c (Gate.G1 (Gate.Rz Float.nan, 0)) in
  let only = lint ~isa:Circuit_lint.Cnot_basis bad in
  ignore only;
  let subset =
    Registry.run ~only:[ "liveness" ]
      (Circuit_lint.target ~isa:Circuit_lint.Cnot_basis bad)
  in
  Alcotest.(check bool) "nan invisible to liveness" false
    (Finding.has_errors subset);
  Alcotest.check_raises "unknown analysis"
    (Invalid_argument "Registry.run: unknown analyses: no-such-pass")
    (fun () ->
      ignore
        (Registry.run ~only:[ "no-such-pass" ] (Circuit_lint.target bad)))

(* --- tableau audits ------------------------------------------------------ *)

let random_conjugated_bsf =
  let open QCheck2.Gen in
  let* terms = Helpers.terms_gen 4 6 in
  let* gates = list_size (int_range 0 8) (Helpers.clifford2q_gen 4) in
  return (terms, gates)

let build_bsf n terms gates =
  let t = Bsf.of_terms n terms in
  List.iter (Bsf.apply_clifford2q t) gates;
  t

let prop_audit_clean =
  Helpers.qtest ~count:100 "caches stay consistent under conjugation"
    random_conjugated_bsf
    (fun (terms, gates) ->
      let t = build_bsf 4 terms gates in
      Bsf.audit t = [])

let fixed_bsf () =
  let terms = [ ps "XYZI", 0.3; ps "ZZII", 0.5; ps "IXXY", 0.7 ] in
  let gates = [ Clifford2q.make Clifford2q.CXX 0 1; Clifford2q.make Clifford2q.CZZ 2 3 ] in
  terms, gates, build_bsf 4 terms gates

let test_catches_corrupt_column_count () =
  let _, _, t = fixed_bsf () in
  Bsf.Testing.corrupt_column_count t 1;
  Alcotest.(check bool) "caught" true (Bsf.audit t <> [])

let test_catches_stale_row_weight () =
  let _, _, t = fixed_bsf () in
  Bsf.Testing.corrupt_row_weight t 0;
  Alcotest.(check bool) "caught" true (Bsf.audit t <> [])

let test_catches_corrupt_nonlocal_count () =
  let _, _, t = fixed_bsf () in
  Bsf.Testing.corrupt_nonlocal_count t;
  Alcotest.(check bool) "caught" true (Bsf.audit t <> [])

let test_debug_audit_mode_traps_mutators () =
  (* PHOENIX_BSF_AUDIT=1 is set binary-wide above: a corrupted cache must
     make the very next mutator raise. *)
  let _, _, t = fixed_bsf () in
  Bsf.Testing.corrupt_column_count t 0;
  match Bsf.apply_h t 0 with
  | () -> Alcotest.fail "debug audit did not trip"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "names the audit" true
      (String.length msg > 0
      && String.sub msg 0 (min 9 (String.length msg)) = "Bsf cache")

(* --- parallel determinism audit ------------------------------------------ *)

let test_determinism_audit_clean () =
  let gadgets =
    Phoenix_ham.Hamiltonian.trotter_gadgets (heisenberg 6)
  in
  let findings = Determinism.audit_gadgets 6 gadgets in
  check_no_errors "deterministic" findings;
  Alcotest.(check int) "single certification" 1 (List.length findings);
  Alcotest.(check bool)
    "info severity" true
    (match findings with
    | [ f ] -> f.Finding.severity = Finding.Info
    | _ -> false)

(* A real program with the cache off, so every replay synthesizes every
   group: its greedy epochs answer 182 of 204 pair scans from the
   pass's shared search-state memo, whichever domain stored them, under
   2 and 4 domains and permuted claim orders. *)
let test_determinism_audit_memo () =
  let h =
    match Phoenix_serve.Workload.of_spec "uccsd:LiH_frz_JW" with
    | Ok h -> h
    | Error msg -> Alcotest.fail msg
  in
  let n = Phoenix_ham.Hamiltonian.num_qubits h in
  let groups =
    match Phoenix_ham.Hamiltonian.gadget_blocks h with
    | Some blocks -> Phoenix.Group.of_blocks n blocks
    | None -> Alcotest.fail "uccsd:LiH_frz_JW has no blocks"
  in
  let options = { Compiler.default_options with Compiler.cache = Cache.Off } in
  let findings =
    Determinism.audit_groups ~options ~domain_counts:[ 2; 4 ]
      ~seeds:[ 1; 7; 42 ] n groups
  in
  check_no_errors "deterministic" findings;
  Alcotest.(check (list string))
    "one certification"
    [ "6 permuted parallel replays bit-identical to the serial compilation" ]
    (List.map (fun f -> f.Finding.message) findings)

(* --- persistent cache audit ---------------------------------------------- *)

let string_contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let audit_dir_counter = ref 0

(* A private, freshly populated persistent cache per test: compile a small
   Hamiltonian with the disk tier so real entries land in the directory. *)
let with_populated_cache f =
  incr audit_dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phoenix-audit-%d-%d" (Unix.getpid ())
         !audit_dir_counter)
  in
  Unix.mkdir d 0o755;
  Unix.putenv "PHOENIX_CACHE_DIR" d;
  Fun.protect
    ~finally:(fun () ->
      ignore (Cache.Persist.clear ~dir:d ());
      (try Unix.rmdir d with Sys_error _ | Unix.Unix_error _ -> ()))
    (fun () ->
      Cache.clear_memory ();
      let options = { Compiler.default_options with cache = Cache.Disk } in
      ignore (Pipelines.compile ~options Pipelines.phoenix (heisenberg 6));
      f d)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_cache_audit_clean () =
  with_populated_cache (fun d ->
      let files = Cache.Persist.list_files ~dir:d () in
      Alcotest.(check bool) "entries persisted" true (List.length files > 0);
      let findings = Cache_audit.run ~dir:d () in
      check_no_errors "clean cache" findings;
      match findings with
      | [ f ] -> Alcotest.(check bool)
          "single info certification" true
          (f.Finding.severity = Finding.Info)
      | _ -> Alcotest.fail "expected exactly one finding")

let test_cache_audit_catches_corruption () =
  with_populated_cache (fun d ->
      let file = List.hd (Cache.Persist.list_files ~dir:d ()) in
      let bytes = read_all file in
      let b = Bytes.of_string bytes in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
      write_all file (Bytes.to_string b);
      let findings = Cache_audit.run ~dir:d () in
      Alcotest.(check bool) "has errors" true (Finding.has_errors findings);
      Alcotest.(check bool)
        "names the corrupt entry" true
        (List.exists
           (fun (f : Finding.t) ->
             f.Finding.severity = Finding.Error
             && string_contains f.Finding.message "corrupt cache entry")
           findings))

let test_cache_audit_catches_address_mismatch () =
  with_populated_cache (fun d ->
      let file = List.hd (Cache.Persist.list_files ~dir:d ()) in
      let base = Filename.basename file in
      (* Re-address the entry under a digest it does not hash to. *)
      let flipped =
        String.mapi
          (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c)
          base
      in
      Sys.rename file (Filename.concat d flipped);
      let findings = Cache_audit.run ~dir:d () in
      Alcotest.(check bool) "has errors" true (Finding.has_errors findings);
      Alcotest.(check bool)
        "reports the digest mismatch" true
        (List.exists
           (fun (f : Finding.t) ->
             f.Finding.severity = Finding.Error
             && string_contains f.Finding.message
                  "does not match fingerprint digest")
           findings))

(* --- one structural engine ------------------------------------------------

   [Structural.validate] (the --verify diagnostics) and the two
   conformance analyses render the same violations: for every injected
   fault both report the same set, once the findings' gate locations
   are written the way the diagnostics prefix them. *)

let structural_messages ~isa ?topology c =
  List.sort compare
    (List.map
       (fun (d : Phoenix_verify.Diag.t) -> d.Phoenix_verify.Diag.message)
       (Structural.validate ~isa ?topology c))

let conformance_messages ~isa ?topology c =
  Registry.run ~only:[ "isa-conformance"; "coupling-conformance" ]
    (Circuit_lint.target ~isa ?topology c)
  |> List.map (fun (f : Finding.t) ->
         match f.Finding.location with
         | Finding.Gate i -> Printf.sprintf "gate #%d %s" i f.Finding.message
         | _ -> f.Finding.message)
  |> List.sort compare

let test_structural_equals_conformance () =
  let cnot = Circuit_lint.Cnot_basis and su4 = Circuit_lint.Su4_basis in
  let cases =
    [
      ( "out-of-ISA gate",
        cnot,
        None,
        Circuit.create 3
          [
            Gate.Cnot (0, 1);
            Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Z; a = 0; b = 2; theta = 0.4 };
          ],
        "outside the CNOT ISA alphabet" );
      ( "CNOT on the SU(4) ISA",
        su4,
        None,
        Circuit.create 2 [ Gate.Cnot (0, 1) ],
        "outside the SU(4) ISA alphabet" );
      ( "coincident operands",
        cnot,
        None,
        Circuit.create 3 [ Gate.Cnot (1, 1) ],
        "has coincident operands" );
      ( "off-pair SU(4) part",
        su4,
        None,
        Circuit.create 3
          [
            Gate.Su4
              { a = 0; b = 1; parts = [ Gate.Cnot (0, 1); Gate.G1 (Gate.H, 2) ] };
          ],
        "SU(4) block has parts outside its qubit pair (0,1)" );
      ( "qubit outside the register",
        cnot,
        None,
        Circuit.of_validated 2 [ Gate.Cnot (0, 3) ],
        "touches qubit 3 outside [0, 2)" );
      ( "non-adjacent pair",
        cnot,
        Some (Topology.line 4),
        Circuit.create 4 [ Gate.Cnot (0, 1); Gate.Cnot (0, 2) ],
        "acts on non-adjacent physical qubits (0,2)" );
      ( "register wider than the device",
        cnot,
        Some (Topology.line 3),
        Circuit.create 5 [ Gate.Cnot (0, 1); Gate.Cnot (3, 4) ],
        "circuit has 5 qubits but the device only 3" );
    ]
  in
  List.iter
    (fun (name, isa, topology, c, expected) ->
      let diags = structural_messages ~isa ?topology c in
      Alcotest.(check (list string))
        (name ^ ": same violations")
        diags
        (conformance_messages ~isa ?topology c);
      if not (List.exists (fun m -> string_contains m expected) diags) then
        Alcotest.failf "%s: no %S among %s" name expected
          (String.concat "; " diags))
    cases;
  Alcotest.(check (list string))
    "clean circuit" []
    (structural_messages ~isa:cnot ~topology:(Topology.line 3)
       (Circuit.create 3 [ Gate.Cnot (0, 1); Gate.Cnot (1, 2) ]))

(* --- finding rendering --------------------------------------------------- *)

let test_finding_json () =
  let f =
    Finding.error ~location:(Finding.Gate 3) ~analysis:"isa-conformance"
      "bad \"gate\""
  in
  Alcotest.(check string)
    "json object"
    "{\"analysis\":\"isa-conformance\",\"severity\":\"error\",\"location\":{\"kind\":\"gate\",\"index\":3},\"message\":\"bad \\\"gate\\\"\"}"
    (Phoenix_util.Json.to_string (Finding.to_json f));
  Alcotest.(check string)
    "global location"
    "{\"analysis\":\"liveness\",\"severity\":\"warning\",\"location\":{\"kind\":\"global\"},\"message\":\"m\"}"
    (Phoenix_util.Json.to_string
       (Finding.to_json (Finding.warning ~analysis:"liveness" "m")));
  Alcotest.(check string)
    "summary" "1 error, 0 warnings, 0 notes"
    (Finding.summary [ f ])

let () =
  Alcotest.run "analysis"
    [
      ( "clean",
        [
          Alcotest.test_case "phoenix logical" `Quick test_phoenix_logical_clean;
          Alcotest.test_case "phoenix routed" `Quick test_phoenix_routed_clean;
          Alcotest.test_case "all baselines" `Quick test_baselines_clean;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "out-of-ISA gate" `Quick test_catches_out_of_isa_gate;
          Alcotest.test_case "dropped SWAP" `Quick test_catches_dropped_swap;
          Alcotest.test_case "NaN angle" `Quick test_catches_nan_angle;
          Alcotest.test_case "zero angle warns" `Quick
            test_zero_angle_is_warning_only;
          Alcotest.test_case "metrics drift" `Quick test_catches_metrics_drift;
          Alcotest.test_case "dangling qubit" `Quick test_catches_dangling_qubit;
          Alcotest.test_case "registry selection" `Quick test_registry_selection;
          Alcotest.test_case "structural = conformance analyses" `Quick
            test_structural_equals_conformance;
        ] );
      ( "tableau",
        [
          prop_audit_clean;
          Alcotest.test_case "corrupt column count" `Quick
            test_catches_corrupt_column_count;
          Alcotest.test_case "stale row weight" `Quick
            test_catches_stale_row_weight;
          Alcotest.test_case "corrupt nonlocal count" `Quick
            test_catches_corrupt_nonlocal_count;
          Alcotest.test_case "debug audit traps mutators" `Quick
            test_debug_audit_mode_traps_mutators;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel replays identical" `Quick
            test_determinism_audit_clean;
          Alcotest.test_case "memo hits across domains" `Quick
            test_determinism_audit_memo;
        ] );
      ( "cache",
        [
          Alcotest.test_case "clean persistent cache" `Quick
            test_cache_audit_clean;
          Alcotest.test_case "corrupt entry" `Quick
            test_cache_audit_catches_corruption;
          Alcotest.test_case "address mismatch" `Quick
            test_cache_audit_catches_address_mismatch;
        ] );
      ( "rendering",
        [ Alcotest.test_case "json + summary" `Quick test_finding_json ] );
    ]
