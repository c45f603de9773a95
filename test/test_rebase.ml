module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Rebase = Phoenix_circuit.Rebase
module Lowering = Phoenix_circuit.Lowering
module Clifford2q = Helpers.Clifford2q
module Pauli = Helpers.Pauli
module Unitary = Helpers.Unitary

let to_cnot_basis c = Lowering.run [ Lowering.Rebase ] c
let cnot a b = Gate.Cnot (a, b)
let h q = Gate.G1 (Gate.H, q)
let rz t q = Gate.G1 (Gate.Rz t, q)

let is_basis = function
  | Gate.G1 _ | Gate.Cnot _ -> true
  | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _ | Gate.Su4 _ -> false

let test_lower_cliff2 () =
  let c =
    Circuit.create 2 [ Gate.Cliff2 (Clifford2q.make Clifford2q.CXY 0 1) ]
  in
  let c' = to_cnot_basis c in
  Alcotest.(check bool) "all basis gates" true
    (List.for_all is_basis (Circuit.gates c'));
  Alcotest.(check int) "one cnot" 1 (Circuit.count_2q c')

let test_lower_rpp_zz () =
  let c =
    Circuit.create 2
      [ Gate.Rpp { p0 = Pauli.Z; p1 = Pauli.Z; a = 0; b = 1; theta = 0.4 } ]
  in
  let c' = to_cnot_basis c in
  Alcotest.(check int) "two cnots" 2 (Circuit.count_2q c');
  Alcotest.(check int) "three gates (no basis conj for ZZ)" 3 (Circuit.length c')

let test_lower_swap () =
  let c = Circuit.create 2 [ Gate.Swap (0, 1) ] in
  Alcotest.(check int) "three cnots" 3 (Circuit.count_2q (to_cnot_basis c))

let random_gate_gen n =
  let open QCheck2.Gen in
  let pairs =
    map
      (fun (a, d) ->
        let b = (a + 1 + d) mod n in
        a, b)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)))
  in
  let nontrivial = oneofl [ Pauli.X; Pauli.Y; Pauli.Z ] in
  oneof
    [
      map (fun q -> h q) (int_range 0 (n - 1));
      map (fun (q, t) -> rz t q) (pair (int_range 0 (n - 1)) Helpers.angle_gen);
      map (fun (a, b) -> cnot a b) pairs;
      map (fun (a, b) -> Gate.Swap (a, b)) pairs;
      map
        (fun ((a, b), k) -> Gate.Cliff2 (Clifford2q.make k a b))
        (pair pairs (oneofl Clifford2q.all_kinds));
      map
        (fun ((a, b), (p0, p1), t) ->
          Gate.Rpp { p0; p1; a; b; theta = t })
        (triple pairs (pair nontrivial nontrivial) Helpers.angle_gen);
    ]

(* Each property runs on the circuit and on its SU(4) fusion, so the
   rebase also recurses into [Su4] parts. *)
let prop_cnot_basis_preserves_unitary =
  Helpers.qtest ~count:150 "to_cnot_basis preserves the unitary"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) (random_gate_gen 3))
    (fun gates ->
      let c = Circuit.create 3 gates in
      let u = Unitary.circuit_unitary c in
      List.for_all
        (fun c ->
          Helpers.unitary_equiv ~tol:1e-7 u
            (Unitary.circuit_unitary (to_cnot_basis c)))
        [ c; Rebase.to_su4 c ])

let prop_cnot_basis_only_basis_gates =
  Helpers.qtest ~count:100 "to_cnot_basis emits only G1/CNOT"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) (random_gate_gen 4))
    (fun gates ->
      let c = Circuit.create 4 gates in
      List.for_all
        (fun c -> List.for_all is_basis (Circuit.gates (to_cnot_basis c)))
        [ c; Rebase.to_su4 c ])

let prop_su4_preserves_unitary =
  Helpers.qtest ~count:150 "to_su4 preserves the unitary"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) (random_gate_gen 3))
    (fun gates ->
      let c = Circuit.create 3 gates in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.circuit_unitary c)
        (Unitary.circuit_unitary (Rebase.to_su4 c)))

let prop_su4_all_two_qubit_fused =
  Helpers.qtest ~count:100 "every 2Q gate after to_su4 is an Su4 block"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) (random_gate_gen 4))
    (fun gates ->
      let c = Rebase.to_su4 (Circuit.create 4 gates) in
      List.for_all
        (fun g ->
          match g with
          | Gate.Su4 _ -> true
          | Gate.G1 _ -> true
          | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _ -> false)
        (Circuit.gates c))

let prop_su4_count_le_2q_count =
  Helpers.qtest ~count:100 "#SU4 ≤ #2Q"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20) (random_gate_gen 4))
    (fun gates ->
      let c = Circuit.create 4 gates in
      Rebase.count_su4 c <= Circuit.count_2q c)

let test_su4_fuses_runs () =
  (* Three CNOTs on the same pair with interleaved 1Q gates fuse to one. *)
  let c =
    Circuit.create 3 [ cnot 0 1; rz 0.1 0; h 1; cnot 0 1; cnot 1 0; cnot 1 2 ]
  in
  let c' = Rebase.to_su4 c in
  Alcotest.(check int) "two blocks" 2 (Circuit.count_2q c');
  Alcotest.(check int) "su4 count" 2 (Rebase.count_su4 c)

let test_su4_interrupted_run () =
  (* A gate on another pair that touches a shared qubit breaks the run. *)
  let c = Circuit.create 3 [ cnot 0 1; cnot 1 2; cnot 0 1 ] in
  Alcotest.(check int) "three blocks" 3 (Rebase.count_su4 c)

let () =
  Alcotest.run "rebase"
    [
      ( "unit",
        [
          Alcotest.test_case "lower Cliff2" `Quick test_lower_cliff2;
          Alcotest.test_case "lower Rpp(ZZ)" `Quick test_lower_rpp_zz;
          Alcotest.test_case "lower Swap" `Quick test_lower_swap;
          Alcotest.test_case "SU4 fuses runs" `Quick test_su4_fuses_runs;
          Alcotest.test_case "SU4 interrupted run" `Quick test_su4_interrupted_run;
        ] );
      ( "props",
        [
          prop_cnot_basis_preserves_unitary;
          prop_cnot_basis_only_basis_gates;
          prop_su4_preserves_unitary;
          prop_su4_all_two_qubit_fused;
          prop_su4_count_le_2q_count;
        ] );
    ]
