(* Verified compilation: Clifford conjugation frames, the symbolic
   equivalence checker against the dense oracle, structural validation,
   per-group fault recovery, and the PHOENIX-vs-baselines differential
   harness. *)

module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Clifford2q = Helpers.Clifford2q
module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Cmat = Helpers.Cmat
module Unitary = Helpers.Unitary
module Diag = Phoenix_verify.Diag
module Frame = Phoenix_verify.Frame
module Equiv = Phoenix_verify.Equiv
module Checker = Phoenix_verify.Checker
module Structural = Phoenix_verify.Structural
module Group = Phoenix.Group
module Simplify = Phoenix.Simplify
module Synthesis = Phoenix.Synthesis
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Pass = Phoenix.Pass
module Sabre = Phoenix_router.Sabre
module Topology = Phoenix_topology.Topology
module Lowering = Phoenix_circuit.Lowering
module Cache = Phoenix_cache.Cache

let ps = Pauli_string.of_string

(* A baseline's circuit for a flat gadget program, at default options. *)
let baseline entry n terms =
  (Registry.compile_gadgets entry n terms).Compiler.circuit

(* The checker's program check with its verdict mapped the way the
   compiler reads it: only [Proved] is [Ok]. *)
let program_check ?exact n terms c =
  Checker.to_result (Checker.check_program ?exact n terms c)

(* --- frame: pullback vs dense conjugation --- *)

let clifford_gate_gen n =
  let open QCheck2.Gen in
  let g1 =
    map2
      (fun k q -> Gate.G1 (k, q))
      (oneofl [ Gate.H; Gate.S; Gate.Sdg; Gate.X; Gate.Y; Gate.Z ])
      (int_range 0 (n - 1))
  in
  let pair_gen =
    let* a = int_range 0 (n - 1) in
    let* b = int_range 0 (n - 2) in
    return (a, if b >= a then b + 1 else b)
  in
  let cnot = map (fun (a, b) -> Gate.Cnot (a, b)) pair_gen in
  let swap = map (fun (a, b) -> Gate.Swap (a, b)) pair_gen in
  let cliff2 = map (fun c -> Gate.Cliff2 c) (Helpers.clifford2q_gen n) in
  oneof [ g1; cnot; swap; cliff2 ]

let prop_frame_matches_dense =
  let n = 3 in
  Helpers.qtest ~count:150 "frame pullback ≡ dense U† P U"
    (QCheck2.Gen.pair
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 8) (clifford_gate_gen n))
       (Helpers.nontrivial_pauli_string_gen n))
    (fun (gates, p) ->
      let frame = Frame.identity n in
      List.iter (Frame.apply_gate frame) gates;
      let neg, image = Frame.image frame p in
      let u = Unitary.circuit_unitary (Circuit.create n gates) in
      let dense =
        Cmat.mul (Cmat.dagger u) (Cmat.mul (Unitary.pauli_matrix p) u)
      in
      let expected =
        let m = Unitary.pauli_matrix image in
        if neg then Cmat.scale { Complex.re = -1.0; im = 0.0 } m else m
      in
      Cmat.is_close ~tol:1e-9 dense expected)

let test_frame_identity () =
  let f = Frame.identity 4 in
  Alcotest.(check bool) "fresh frame is identity" true (Frame.is_identity f);
  Frame.apply_gate f (Gate.Cnot (0, 2));
  Alcotest.(check bool) "after CNOT not identity" false (Frame.is_identity f);
  Frame.apply_gate f (Gate.Cnot (0, 2));
  Alcotest.(check bool) "CNOT·CNOT cancels" true (Frame.is_identity f)

let test_frame_rejects_rotation () =
  let f = Frame.identity 2 in
  Alcotest.(check bool) "classified non-Clifford" false
    (Frame.is_clifford_gate (Gate.G1 (Gate.Rz 0.3, 0)));
  (match Frame.apply_gate f (Gate.G1 (Gate.Rz 0.3, 0)) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

(* --- the checker on PHOENIX group synthesis --- *)

let prop_group_synthesis_exact_checks =
  Helpers.qtest ~count:80 "exact group synthesis passes propagation + dense"
    (Helpers.terms_gen 3 5)
    (fun terms ->
      let cfg = Simplify.run ~exact:true 3 terms in
      let c = Synthesis.cfg_to_circuit 3 cfg in
      program_check ~exact:true 3 terms c = Ok ()
      && Equiv.unitary_check 3 terms c = Ok ())

let prop_group_synthesis_default_checks =
  Helpers.qtest ~count:80 "default group synthesis passes propagation"
    (Helpers.terms_gen 4 6)
    (fun terms ->
      let cfg = Simplify.run 4 terms in
      let c = Synthesis.cfg_to_circuit 4 cfg in
      program_check 4 terms c = Ok ())

(* Simplify in exact mode preserves the group unitary on random 2–4
   qubit groups (checked through the new validator). *)
let prop_simplify_exact_small_groups =
  let open QCheck2.Gen in
  Helpers.qtest ~count:60 "exact simplify preserves 2–4 qubit group unitary"
    (let* n = int_range 2 4 in
     let* terms = Helpers.terms_gen n 5 in
     return (n, terms))
    (fun (n, terms) ->
      let c = Synthesis.cfg_to_circuit n (Simplify.run ~exact:true n terms) in
      Equiv.unitary_check n terms c = Ok ()
      && program_check ~exact:true n terms c = Ok ())

(* An injected sign-flip fault in a BSF row must be caught. *)
let flip_one_angle cfg =
  let flipped = ref false in
  List.map
    (fun item ->
      match item with
      | Simplify.Core ((p, a) :: rest) when not !flipped ->
        flipped := true;
        Simplify.Core ((p, -.a) :: rest)
      | Simplify.Rotations ((p, a) :: rest) when not !flipped ->
        flipped := true;
        Simplify.Rotations ((p, -.a) :: rest)
      | _ -> item)
    cfg

let prop_sign_flip_caught =
  Helpers.qtest ~count:80 "sign-flip fault is caught by the checkers"
    (Helpers.terms_gen 3 4)
    (fun terms ->
      (* avoid angles where θ ≈ -θ modulo 2π, near 0 and near π: there
         the flip changes the unitary by a global phase at most, so the
         dense check cannot see it.  |a| <= 3 maps into [0.2, π - 0.2]. *)
      let terms =
        List.map
          (fun (p, a) -> p, 0.2 +. (Float.abs a *. (Float.pi -. 0.4) /. 3.0))
          terms
      in
      let cfg = Simplify.run ~exact:true 3 terms in
      let bad = Synthesis.cfg_to_circuit 3 (flip_one_angle cfg) in
      program_check ~exact:true 3 terms bad <> Ok ()
      && Equiv.unitary_check 3 terms bad <> Ok ())

let test_propagation_catches_residual_frame () =
  (* a stray Clifford that never cancels *)
  let c = Circuit.create 2 [ Gate.G1 (Gate.H, 0); Gate.G1 (Gate.Rz 0.5, 0) ] in
  match program_check 2 [ ps "XI", 0.5 ] c with
  | Error msg ->
    Alcotest.(check bool) "message is descriptive" true (String.length msg > 10)
  | Ok () -> Alcotest.fail "expected residual-frame error"

let test_propagation_exact_order () =
  (* XX then ZI anticommute; swapping them is Trotter-visible *)
  let terms = [ ps "XX", 0.4; ps "ZI", 0.7 ] in
  let swapped =
    Circuit.create 2
      [
        Gate.G1 (Gate.Rz 0.7, 0);
        Gate.Rpp { p0 = Pauli.X; p1 = Pauli.X; a = 0; b = 1; theta = 0.4 };
      ]
  in
  Alcotest.(check bool) "default mode accepts reordering" true
    (program_check 2 terms swapped = Ok ());
  (match program_check ~exact:true 2 terms swapped with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "exact mode must reject the reordering")

(* --- soundness: a Proved verdict is a dense equality ---

   Random exact-mode programs on 2–6 qubits.  Candidates are the naive
   and PHOENIX compiles, their peephole + phase-folded rewrites (which
   respell Clifford phases as rotations, so the canonical attempt is
   exercised), and single mutations of all four: a dropped gate, two
   adjacent gates swapped, an inserted S, a negated or a perturbed
   rotation.  Whatever the checker proves must equal the program as a
   dense unitary; equivalently, unequal unitaries never give [Proved].
   The unmutated candidates must prove, so the property is never
   satisfied vacuously. *)

let set_rotation_angle f = function
  | Gate.G1 (Gate.Rx t, q) -> Some (Gate.G1 (Gate.Rx (f t), q))
  | Gate.G1 (Gate.Ry t, q) -> Some (Gate.G1 (Gate.Ry (f t), q))
  | Gate.G1 (Gate.Rz t, q) -> Some (Gate.G1 (Gate.Rz (f t), q))
  | Gate.Rpp r -> Some (Gate.Rpp { r with theta = f r.theta })
  | _ -> None

let mutations salt c =
  let n = Circuit.num_qubits c in
  let gates = Array.of_list (Circuit.gates c) in
  let m = Array.length gates in
  let rebuild l = Circuit.create n l in
  let at i = salt mod max 1 i in
  let dropped = List.filteri (fun i _ -> i <> at m) (Array.to_list gates) in
  let swapped =
    if m < 2 then []
    else
      let i = at (m - 1) in
      let g = Array.copy gates in
      g.(i) <- gates.(i + 1);
      g.(i + 1) <- gates.(i);
      [ rebuild (Array.to_list g) ]
  in
  let with_s =
    let i = at (m + 1) in
    let l = Array.to_list gates in
    List.filteri (fun j _ -> j < i) l
    @ (Gate.G1 (Gate.S, salt mod n) :: List.filteri (fun j _ -> j >= i) l)
  in
  let rotations =
    List.filter (fun i -> set_rotation_angle Fun.id gates.(i) <> None)
      (List.init m Fun.id)
  in
  let retuned f =
    match rotations with
    | [] -> []
    | _ ->
      let r = List.nth rotations (at (List.length rotations)) in
      let g = Array.copy gates in
      g.(r) <- Option.get (set_rotation_angle f gates.(r));
      [ rebuild (Array.to_list g) ]
  in
  (rebuild dropped :: rebuild with_s :: swapped)
  @ retuned Float.neg
  @ retuned (fun t -> t +. 0.3)

let prop_proved_implies_dense_equal =
  let open QCheck2.Gen in
  Helpers.qtest ~count:60 "checker Proved implies dense equality (exact, 2–6 qubits)"
    (let* n = int_range 2 6 in
     let* terms = Helpers.terms_gen n 6 in
     let* salt = int_range 0 1_000_000 in
     return (n, terms, salt))
    (fun (n, terms, salt) ->
      let phoenix =
        (Registry.compile_gadgets
           ~options:
             { Compiler.default_options with exact = true; cache = Cache.Off }
           Registry.phoenix n terms)
          .Compiler.circuit
      in
      let naive = baseline Registry.naive n terms in
      let rewrite c = Lowering.(run [ Peephole; Fold ]) c in
      let bases = [ phoenix; naive; rewrite phoenix; rewrite naive ] in
      let proved c = Checker.check_program ~exact:true n terms c = Checker.Proved in
      let sound c = (not (proved c)) || Equiv.unitary_check n terms c = Ok () in
      List.for_all proved bases
      && List.for_all sound (bases @ List.concat_map (mutations salt) bases))

(* --- structural validation --- *)

let random_2q_circuit_gen n =
  QCheck2.Gen.map
    (fun pairs ->
      Circuit.create n (List.map (fun (a, b) -> Gate.Cnot (a, b)) pairs))
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 12)
       (QCheck2.Gen.map
          (fun (a, b) -> a, if b >= a then b + 1 else b)
          (QCheck2.Gen.pair
             (QCheck2.Gen.int_range 0 (n - 1))
             (QCheck2.Gen.int_range 0 (n - 2)))))

let prop_sabre_respects_coupling =
  let n = 6 in
  let topologies =
    [ "line", Topology.line n; "ring", Topology.ring n;
      "grid", Topology.grid ~rows:2 ~cols:3 ]
  in
  Helpers.qtest ~count:40 "SABRE-routed circuits stay on coupling edges"
    (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 2) (random_2q_circuit_gen n))
    (fun (ti, circ) ->
      let _, topo = List.nth topologies ti in
      let routed = Sabre.route_with_refinement topo circ in
      Structural.validate ~topology:topo routed.Sabre.circuit = [])

let test_structural_detects_violations () =
  let topo = Topology.line 3 in
  let c = Circuit.create 3 [ Gate.Cnot (0, 2) ] in
  let diags = Structural.validate ~topology:topo c in
  Alcotest.(check bool) "non-adjacent pair flagged" true
    (Diag.has_errors diags);
  let c2 =
    Circuit.create 3
      [ Gate.Rpp { p0 = Pauli.Z; p1 = Pauli.Z; a = 0; b = 1; theta = 0.1 } ]
  in
  Alcotest.(check bool) "Rpp outside CNOT alphabet" true
    (Diag.has_errors (Structural.validate ~isa:Structural.Cnot_basis c2));
  Alcotest.(check bool) "Rpp fine under no restriction" false
    (Diag.has_errors (Structural.validate c2))

(* --- compiler integration: fault injection and graceful recovery --- *)

let heisenberg4 = Phoenix_ham.Spin_models.heisenberg_chain 4

let verified_options =
  { Compiler.default_options with verify = true; exact = true }

let test_fault_injected_group_recovers () =
  let gadgets = Phoenix_ham.Hamiltonian.trotter_gadgets heisenberg4 in
  let groups = Group.group_gadgets 4 gadgets in
  Alcotest.(check bool) "have groups" true (List.length groups > 1);
  (* corrupt the first group's synthesis with a BSF sign flip *)
  let corrupted = List.hd groups in
  let synthesize (g : Group.t) =
    if g == corrupted then
      Synthesis.cfg_to_circuit 4
        (flip_one_angle (Simplify.run ~exact:true 4 g.Group.terms))
    else Synthesis.group_circuit ~exact:true g
  in
  let r =
    Compiler.run_passes
      (Compiler.passes ~synthesize ~with_grouping:false verified_options)
      (Pass.init ~groups verified_options 4)
  in
  (* the fault was caught and recovered, not silently shipped *)
  Alcotest.(check bool) "recovery warning recorded" true
    (List.exists
       (fun d ->
         d.Diag.severity = Diag.Warning && d.Diag.group = Some 0
         && d.Diag.pass = "simplify")
       r.Compiler.diagnostics);
  Alcotest.(check bool) "no error diagnostics" false
    (Diag.has_errors r.Compiler.diagnostics);
  (* and the shipped circuit is the true unitary *)
  let reference = Unitary.program_unitary 4 gadgets in
  Helpers.check_equiv ~tol:1e-7 "recovered circuit correct" reference
    (Unitary.circuit_unitary r.Compiler.circuit)

let test_unfaulted_compile_verifies () =
  let r =
    Registry.compile ~options:verified_options Registry.phoenix heisenberg4
  in
  Alcotest.(check bool) "no errors" false
    (Diag.has_errors r.Compiler.diagnostics);
  Alcotest.(check bool) "end-to-end check ran" true
    (List.exists (fun d -> d.Diag.pass = "verify") r.Compiler.diagnostics)

let test_pass_times_reported () =
  let r = Registry.compile Registry.phoenix heisenberg4 in
  let keys =
    List.map (fun (e : Pass.trace_entry) -> e.Pass.pass) r.Compiler.trace
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " timed") true (List.mem k keys))
    [ "group"; "simplify"; "order"; "peephole"; "lower" ];
  List.iter
    (fun (e : Pass.trace_entry) ->
      Alcotest.(check bool) (e.Pass.pass ^ " non-negative") true
        (e.Pass.seconds >= 0.0))
    r.Compiler.trace;
  let sum =
    List.fold_left
      (fun acc (e : Pass.trace_entry) -> acc +. e.Pass.seconds)
      0.0 r.Compiler.trace
  in
  Alcotest.(check bool) "passes within wall time" true
    (sum <= r.Compiler.wall_time +. 1e-3)

let test_verify_off_no_diagnostics () =
  let r = Registry.compile Registry.phoenix heisenberg4 in
  Alcotest.(check int) "no diagnostics without verify" 0
    (List.length r.Compiler.diagnostics)

(* --- acceptance: molecule presets and a 12-node QAOA instance --- *)

let check_zero_errors label (r : Compiler.report) =
  if Diag.has_errors r.Compiler.diagnostics then
    Alcotest.failf "%s: %s" label
      (String.concat "; "
         (List.map Diag.to_string (Diag.errors r.Compiler.diagnostics)))

let test_molecules_verify () =
  List.iter
    (fun (b : Phoenix_ham.Molecules.benchmark) ->
      let h =
        Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
          b.Phoenix_ham.Molecules.spec
      in
      let options = { Compiler.default_options with verify = true } in
      check_zero_errors b.Phoenix_ham.Molecules.label
        (Registry.compile ~options Registry.phoenix h))
    Phoenix_ham.Molecules.table1_suite

let test_qaoa12_verify () =
  let graph = Phoenix_ham.Graphs.random_regular ~seed:7 ~degree:3 12 in
  let h = Phoenix_ham.Qaoa.maxcut_cost graph in
  let logical = { Compiler.default_options with verify = true } in
  check_zero_errors "qaoa12 logical"
    (Registry.compile ~options:logical Registry.phoenix h);
  let topo = Topology.grid ~rows:3 ~cols:4 in
  let routed =
    { Compiler.default_options with verify = true; target = Compiler.Hardware topo }
  in
  check_zero_errors "qaoa12 routed"
    (Registry.compile ~options:routed Registry.phoenix h)

(* --- differential harness: PHOENIX vs naive vs tket-like --- *)

let prop_differential_exact =
  Helpers.qtest ~count:30 "differential: phoenix(exact) ≡ naive ≡ program"
    (Helpers.terms_gen 3 6)
    (fun terms ->
      let reference = Unitary.program_unitary 3 terms in
      let r =
        Registry.compile_gadgets
          ~options:{ Compiler.default_options with exact = true; verify = true }
          Registry.phoenix 3 terms
      in
      let naive = baseline Registry.naive 3 terms in
      (not (Diag.has_errors r.Compiler.diagnostics))
      && Helpers.unitary_equiv ~tol:1e-7 reference
           (Unitary.circuit_unitary r.Compiler.circuit)
      && Helpers.unitary_equiv ~tol:1e-7 reference
           (Unitary.circuit_unitary naive))

let commuting_terms_gen =
  (* mutually commuting (Z-diagonal) programs: every compiler must agree
     exactly, Trotter freedom or not *)
  QCheck2.Gen.list_size
    (QCheck2.Gen.int_range 2 6)
    (QCheck2.Gen.pair
       (QCheck2.Gen.oneofl
          [ ps "ZZI"; ps "IZZ"; ps "ZIZ"; ps "ZII"; ps "IZI"; ps "IIZ" ])
       Helpers.angle_gen)

let prop_differential_commuting =
  Helpers.qtest ~count:30
    "differential: commuting programs agree across all compilers"
    commuting_terms_gen
    (fun terms ->
      let reference = Unitary.program_unitary 3 terms in
      let phoenix =
        (Registry.compile_gadgets
           ~options:{ Compiler.default_options with verify = true }
           Registry.phoenix 3 terms)
          .Compiler.circuit
      in
      let naive = baseline Registry.naive 3 terms in
      let tket = baseline Registry.tket 3 terms in
      List.for_all
        (fun c ->
          Helpers.unitary_equiv ~tol:1e-7 reference (Unitary.circuit_unitary c))
        [ phoenix; naive; tket ])

(* --- per-group checks on the group's support -------------------------- *)

(* The simplify pass checks each group's k-qubit circuit against its
   k-qubit terms (local qubit [i] is register qubit [sites.(i)]); that
   verdict must be the register-wide one for the embedded pair. *)
let same_label ?exact ~sites n terms c =
  Checker.verdict_label
    (Checker.check_program ?exact (Array.length sites) terms c)
  = Checker.verdict_label
      (Checker.check_program ?exact n
         (List.map (fun (p, a) -> (Helpers.embed_string n sites p, a)) terms)
         (Helpers.embed_circuit n sites c))

(* Every compiled group: the support synthesis embeds to the shipped
   circuit, and its local verdict is the register-wide one. *)
let test_local_matches_full_on_compiles () =
  List.iter
    (fun (spec, exact) ->
      let h =
        match Phoenix_serve.Workload.of_spec spec with
        | Ok h -> h
        | Error msg -> Alcotest.failf "%s: %s" spec msg
      in
      let blocks = ref [] in
      let hook ~pass ~before:_ ~after ~seconds:_ =
        if pass.Pass.name = "simplify" then blocks := after.Pass.blocks
      in
      let options =
        { Compiler.default_options with exact; domains = 1; cache = Cache.Off }
      in
      ignore (Registry.compile ~options ~hooks:[ hook ] Registry.phoenix h);
      let n = Phoenix_ham.Hamiltonian.num_qubits h in
      Alcotest.(check bool) (spec ^ " has groups") true (!blocks <> []);
      List.iteri
        (fun i (b : Phoenix.Order.block) ->
          let g = b.Phoenix.Order.group in
          let sites, terms = Helpers.on_support n g.Group.terms in
          let local = Synthesis.support_circuit ~exact (Array.length sites) terms in
          if
            not
              (Circuit.equal
                 (Helpers.embed_circuit n sites local)
                 b.Phoenix.Order.circuit)
          then Alcotest.failf "%s (exact %b): group %d embeds differently" spec exact i;
          if not (same_label ~exact ~sites n terms local) then
            Alcotest.failf "%s (exact %b): group %d verdicts differ" spec exact i)
        !blocks)
    [
      ("uccsd:LiH_frz_JW", false);
      ("uccsd:LiH_frz_JW", true);
      ("qaoa:Reg3-16", false);
      ("fermi-hubbard:2x2", false);
    ]

(* The fault injections above, on 3-qubit groups placed at qubits 1, 3
   and 4 of a 6-qubit register. *)
let sites = [| 1; 3; 4 |]

let prop_local_matches_full_on_faults =
  Helpers.qtest ~count:80 "local = full verdicts on clean and sign-flipped groups"
    (Helpers.terms_gen 3 4)
    (fun terms ->
      let terms =
        List.map
          (fun (p, a) -> p, 0.2 +. (Float.abs a *. (Float.pi -. 0.4) /. 3.0))
          terms
      in
      let cfg = Simplify.run ~exact:true 3 terms in
      let good = Synthesis.cfg_to_circuit 3 cfg in
      let bad = Synthesis.cfg_to_circuit 3 (flip_one_angle cfg) in
      let stray = Circuit.append good (Gate.G1 (Gate.H, 0)) in
      Checker.check_program ~exact:true 3 terms good = Checker.Proved
      && program_check ~exact:true 3 terms bad <> Ok ()
      && List.for_all
           (fun c ->
             same_label ~exact:true ~sites 6 terms c && same_label ~sites 6 terms c)
           [ good; bad; stray ])

let test_local_matches_full_on_frame_and_order () =
  let frame = Circuit.create 3 [ Gate.G1 (Gate.H, 1); Gate.G1 (Gate.Rz 0.5, 1) ] in
  let terms = [ ps "XII", 0.5 ] in
  Alcotest.(check bool) "residual frame refuted locally" true
    (Checker.check_program 3 terms frame <> Checker.Proved);
  Alcotest.(check bool) "residual frame: same verdict" true
    (same_label ~sites 6 terms frame);
  let terms = [ ps "XXI", 0.4; ps "ZII", 0.7 ] in
  let swapped =
    Circuit.create 3
      [
        Gate.G1 (Gate.Rz 0.7, 0);
        Gate.Rpp { p0 = Pauli.X; p1 = Pauli.X; a = 0; b = 1; theta = 0.4 };
      ]
  in
  List.iter
    (fun exact ->
      Alcotest.(check bool)
        (Printf.sprintf "exact order %b: same verdict" exact)
        true
        (same_label ~exact ~sites 6 terms swapped))
    [ false; true ]

let () =
  Alcotest.run "verify"
    [
      ( "frame",
        [
          Alcotest.test_case "identity" `Quick test_frame_identity;
          Alcotest.test_case "rejects rotations" `Quick
            test_frame_rejects_rotation;
          prop_frame_matches_dense;
        ] );
      ( "propagation",
        [
          prop_group_synthesis_exact_checks;
          prop_group_synthesis_default_checks;
          prop_simplify_exact_small_groups;
          prop_sign_flip_caught;
          Alcotest.test_case "residual frame" `Quick
            test_propagation_catches_residual_frame;
          Alcotest.test_case "exact order" `Quick test_propagation_exact_order;
          prop_proved_implies_dense_equal;
        ] );
      ( "structural",
        [
          prop_sabre_respects_coupling;
          Alcotest.test_case "detects violations" `Quick
            test_structural_detects_violations;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "fault recovery" `Quick
            test_fault_injected_group_recovers;
          Alcotest.test_case "clean verify" `Quick test_unfaulted_compile_verifies;
          Alcotest.test_case "pass times" `Quick test_pass_times_reported;
          Alcotest.test_case "verify off" `Quick test_verify_off_no_diagnostics;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "molecule presets" `Slow test_molecules_verify;
          Alcotest.test_case "qaoa 12 nodes" `Quick test_qaoa12_verify;
        ] );
      ( "differential",
        [ prop_differential_exact; prop_differential_commuting ] );
      ( "support",
        [
          Alcotest.test_case "local = full on compiled groups" `Quick
            test_local_matches_full_on_compiles;
          prop_local_matches_full_on_faults;
          Alcotest.test_case "local = full on frame and order faults" `Quick
            test_local_matches_full_on_frame_and_order;
        ] );
    ]
