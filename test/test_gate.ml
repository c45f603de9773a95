module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Clifford2q = Helpers.Clifford2q
module Pauli = Helpers.Pauli
module Pauli_term = Phoenix_pauli.Pauli_term
module Pauli_string = Helpers.Pauli_string
module Cmat = Helpers.Cmat
module Unitary = Helpers.Unitary

let all_one_q =
  [
    Gate.H; Gate.S; Gate.Sdg; Gate.X; Gate.Y; Gate.Z; Gate.T; Gate.Tdg;
    Gate.Rx 0.7; Gate.Ry (-0.3); Gate.Rz 1.1;
  ]

let test_dagger_one_q_inverse () =
  List.iter
    (fun k ->
      let u = Unitary.one_q k in
      let ud =
        match Gate.dagger (Gate.G1 (k, 0)) with
        | Gate.G1 (k', _) -> Unitary.one_q k'
        | _ -> Alcotest.fail "dagger changed arity"
      in
      Alcotest.(check bool)
        (Gate.to_string (Gate.G1 (k, 0)) ^ " inverse")
        true
        (Cmat.is_close (Cmat.mul u ud) (Cmat.identity 2)))
    all_one_q

let test_dagger_two_q_inverse () =
  let gates =
    [
      Gate.Cnot (0, 1);
      Gate.Swap (0, 1);
      Gate.Cliff2 (Clifford2q.make Clifford2q.CYZ 0 1);
      Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Z; a = 0; b = 1; theta = 0.9 };
      Gate.Su4
        {
          a = 0;
          b = 1;
          parts = [ Gate.Cnot (0, 1); Gate.G1 (Gate.Rz 0.4, 1); Gate.Cnot (1, 0) ];
        };
    ]
  in
  List.iter
    (fun g ->
      let u = Unitary.gate_4x4 g and ud = Unitary.gate_4x4 (Gate.dagger g) in
      Alcotest.(check bool)
        (Gate.to_string g ^ " inverse")
        true
        (Cmat.is_close ~tol:1e-9 (Cmat.mul u ud) (Cmat.identity 4)))
    gates

let test_qubits_and_pair () =
  Alcotest.(check (list int)) "1q" [ 3 ] (Gate.qubits (Gate.G1 (Gate.H, 3)));
  Alcotest.(check (list int)) "2q" [ 2; 0 ] (Gate.qubits (Gate.Cnot (2, 0)));
  Alcotest.(check (option (pair int int))) "pair normalized" (Some (0, 2))
    (Gate.pair (Gate.Cnot (2, 0)));
  Alcotest.(check (option (pair int int))) "1q no pair" None
    (Gate.pair (Gate.G1 (Gate.X, 1)));
  (* the allocation-free accessors read [qubits] in order, for every kind *)
  List.iter
    (fun g ->
      let second = Gate.second_qubit g in
      Alcotest.(check (list int))
        (Gate.to_string g ^ " first/second")
        (Gate.qubits g)
        (Gate.first_qubit g :: (if second >= 0 then [ second ] else [])))
    [
      Gate.G1 (Gate.H, 3);
      Gate.Cnot (2, 0);
      Gate.Swap (4, 1);
      Gate.Cliff2 (Clifford2q.make Clifford2q.CYZ 5 2);
      Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Z; a = 3; b = 1; theta = 0.9 };
      Gate.Su4 { a = 6; b = 0; parts = [ Gate.Cnot (6, 0) ] };
    ]

let test_clifford2q_decompose_matches_matrix () =
  List.iter
    (fun kind ->
      let c = Clifford2q.make kind 0 1 in
      let via_gates =
        Unitary.circuit_unitary
          (Circuit.create 2 (List.map Gate.of_clifford_basis (Clifford2q.decompose c)))
      in
      let direct = Unitary.clifford2q_4x4 kind in
      Alcotest.(check bool)
        (Clifford2q.kind_to_string kind)
        true
        (Cmat.equal_up_to_phase ~tol:1e-9 via_gates direct))
    Clifford2q.all_kinds

let test_clifford2q_hermitian () =
  List.iter
    (fun kind ->
      let u = Unitary.clifford2q_4x4 kind in
      Alcotest.(check bool)
        (Clifford2q.kind_to_string kind ^ " hermitian")
        true
        (Cmat.is_close u (Cmat.dagger u));
      Alcotest.(check bool)
        (Clifford2q.kind_to_string kind ^ " involutive")
        true
        (Cmat.is_close (Cmat.mul u u) (Cmat.identity 4)))
    Clifford2q.all_kinds

let test_kind_of_sigmas_total () =
  let nontrivial = [ Pauli.X; Pauli.Y; Pauli.Z ] in
  List.iter
    (fun s0 ->
      List.iter
        (fun s1 ->
          match Clifford2q.kind_of_sigmas s0 s1 with
          | Some (kind, swapped) ->
            let expected_s0, expected_s1 = Clifford2q.kind_sigmas kind in
            let got = if swapped then expected_s1, expected_s0 else expected_s0, expected_s1 in
            Alcotest.(check bool) "roundtrip" true (got = (s0, s1))
          | None -> Alcotest.fail "nontrivial pair must resolve")
        nontrivial)
    nontrivial;
  Alcotest.(check bool) "identity is None" true
    (Clifford2q.kind_of_sigmas Pauli.I Pauli.X = None)

let test_equal_gate_asymmetric () =
  let a = Clifford2q.make Clifford2q.CXY 0 1 in
  let b = Clifford2q.make Clifford2q.CXY 1 0 in
  Alcotest.(check bool) "asymmetric not swap-equal" false
    (Clifford2q.equal_gate a b);
  Alcotest.(check bool) "self equal" true (Clifford2q.equal_gate a a)

let test_rotation_of_pauli () =
  (match Gate.rotation_of_pauli Pauli.Y 2 0.4 with
  | Gate.G1 (Gate.Ry t, 2) -> Alcotest.(check (float 1e-12)) "angle" 0.4 t
  | _ -> Alcotest.fail "expected Ry");
  Alcotest.check_raises "identity" (Invalid_argument "Gate.rotation_of_pauli: identity")
    (fun () -> ignore (Gate.rotation_of_pauli Pauli.I 0 0.1))

let test_pauli_term () =
  let t = Pauli_term.make (Pauli_string.of_string "XIZ") 0.25 in
  Alcotest.(check int) "qubits" 3 (Pauli_term.num_qubits t);
  Alcotest.(check int) "weight" 2 (Pauli_term.weight t);
  let s = Pauli_term.scale 2.0 t in
  Alcotest.(check (float 1e-12)) "scaled" 0.5 s.Pauli_term.coeff;
  Alcotest.(check string) "support key" "101" (Pauli_term.support_key t)

let test_with_num_qubits () =
  let c = Circuit.create 2 [ Gate.Cnot (0, 1) ] in
  let c' = Circuit.with_num_qubits 5 c in
  Alcotest.(check int) "widened" 5 (Circuit.num_qubits c');
  Alcotest.check_raises "cannot shrink"
    (Invalid_argument "Circuit.with_num_qubits: cannot shrink") (fun () ->
      ignore (Circuit.with_num_qubits 1 c))

let test_molecules_find () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Phoenix_ham.Molecules.find "H3O_plus"))

let test_uccsd_invalid_specs () =
  let bad = { Phoenix_ham.Uccsd.name = "bad"; n_spatial = 2; n_electrons = 3; frozen = 0 } in
  Alcotest.check_raises "open shell"
    (Invalid_argument "Uccsd: open-shell molecules unsupported") (fun () ->
      ignore (Phoenix_ham.Uccsd.num_active_electrons bad))

let () =
  Alcotest.run "gate"
    [
      ( "gates",
        [
          Alcotest.test_case "1q dagger inverse" `Quick test_dagger_one_q_inverse;
          Alcotest.test_case "2q dagger inverse" `Quick test_dagger_two_q_inverse;
          Alcotest.test_case "qubits/pair" `Quick test_qubits_and_pair;
          Alcotest.test_case "rotation_of_pauli" `Quick test_rotation_of_pauli;
        ] );
      ( "clifford2q",
        [
          Alcotest.test_case "decompose = matrix" `Quick
            test_clifford2q_decompose_matches_matrix;
          Alcotest.test_case "hermitian involutive" `Quick test_clifford2q_hermitian;
          Alcotest.test_case "kind_of_sigmas total" `Quick test_kind_of_sigmas_total;
          Alcotest.test_case "equal_gate" `Quick test_equal_gate_asymmetric;
        ] );
      ( "misc",
        [
          Alcotest.test_case "pauli term" `Quick test_pauli_term;
          Alcotest.test_case "with_num_qubits" `Quick test_with_num_qubits;
          Alcotest.test_case "molecules find" `Quick test_molecules_find;
          Alcotest.test_case "uccsd invalid" `Quick test_uccsd_invalid_specs;
        ] );
    ]
