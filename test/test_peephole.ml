module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Lowering = Phoenix_circuit.Lowering
module Clifford2q = Helpers.Clifford2q
module Pauli = Helpers.Pauli
module Unitary = Helpers.Unitary

let cnot a b = Gate.Cnot (a, b)
let h q = Gate.G1 (Gate.H, q)
let s q = Gate.G1 (Gate.S, q)
let sdg q = Gate.G1 (Gate.Sdg, q)
let rz t q = Gate.G1 (Gate.Rz t, q)
let rx t q = Gate.G1 (Gate.Rx t, q)

let opt c = Lowering.run [ Lowering.Peephole ] c
let fold c = Lowering.run [ Lowering.Fold ] c

let test_hh_cancels () =
  let c = opt (Circuit.create 1 [ h 0; h 0 ]) in
  Alcotest.(check int) "empty" 0 (Circuit.length c)

let test_cnot_cnot_cancels () =
  let c = opt (Circuit.create 2 [ cnot 0 1; cnot 0 1 ]) in
  Alcotest.(check int) "empty" 0 (Circuit.length c)

let test_cnot_reversed_not_cancelled () =
  let c = opt (Circuit.create 2 [ cnot 0 1; cnot 1 0 ]) in
  Alcotest.(check int) "kept" 2 (Circuit.length c)

let test_rz_merge () =
  let c = opt (Circuit.create 1 [ rz 0.25 0; rz 0.5 0 ]) in
  match Circuit.gates c with
  | [ Gate.G1 (Gate.Rz t, 0) ] -> Alcotest.(check (float 1e-12)) "sum" 0.75 t
  | _ -> Alcotest.fail "expected single merged Rz"

let test_rz_inverse_vanishes () =
  let c = opt (Circuit.create 1 [ rz 0.4 0; rz (-0.4) 0 ]) in
  Alcotest.(check int) "empty" 0 (Circuit.length c)

let test_s_sdg_merge_to_nothing () =
  let c = opt (Circuit.create 1 [ s 0; sdg 0 ]) in
  Alcotest.(check int) "cancelled" 0 (Circuit.length c)

let test_rz_commutes_through_cnot_control () =
  (* Rz on the control commutes through CNOT. *)
  let c = opt (Circuit.create 2 [ rz 0.3 0; cnot 0 1; rz (-0.3) 0 ]) in
  Alcotest.(check int) "only cnot left" 1 (Circuit.length c)

let test_rx_commutes_through_cnot_target () =
  let c = opt (Circuit.create 2 [ rx 0.3 1; cnot 0 1; rx (-0.3) 1 ]) in
  Alcotest.(check int) "only cnot left" 1 (Circuit.length c)

let test_cnot_cancel_through_diagonal () =
  (* CNOT ; Rz(control) ; CNOT  →  Rz *)
  let c = opt (Circuit.create 2 [ cnot 0 1; rz 0.9 0; cnot 0 1 ]) in
  Alcotest.(check int) "one gate" 1 (Circuit.count_1q c);
  Alcotest.(check int) "no cnots" 0 (Circuit.count_2q c)

let test_cnot_blocked_by_h () =
  let c = opt (Circuit.create 2 [ cnot 0 1; h 0; cnot 0 1 ]) in
  Alcotest.(check int) "nothing cancelled" 3 (Circuit.length c)

let test_cnot_shared_control_commute () =
  (* CNOT(0,1); CNOT(0,2); CNOT(0,1) → CNOT(0,2): same-control CNOTs commute *)
  let c = opt (Circuit.create 3 [ cnot 0 1; cnot 0 2; cnot 0 1 ]) in
  Alcotest.(check int) "one left" 1 (Circuit.count_2q c)

let test_cliff2_cancel () =
  let g = Gate.Cliff2 (Clifford2q.make Clifford2q.CYY 0 1) in
  let g_swapped = Gate.Cliff2 (Clifford2q.make Clifford2q.CYY 1 0) in
  let c = opt (Circuit.create 2 [ g; g_swapped ]) in
  Alcotest.(check int) "symmetric kind cancels swapped" 0 (Circuit.length c)

let test_swap_cancel () =
  let c = opt (Circuit.create 2 [ Gate.Swap (0, 1); Gate.Swap (1, 0) ]) in
  Alcotest.(check int) "cancelled" 0 (Circuit.length c)

let test_rpp_merge () =
  let r t = Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Y; a = 0; b = 1; theta = t } in
  let c = opt (Circuit.create 2 [ r 0.2; r 0.3 ]) in
  match Circuit.gates c with
  | [ Gate.Rpp { theta; _ } ] -> Alcotest.(check (float 1e-12)) "merged" 0.5 theta
  | _ -> Alcotest.fail "expected merged Rpp"

let test_zero_rotation_dropped () =
  let c = opt (Circuit.create 1 [ rz 0.0 0 ]) in
  Alcotest.(check int) "dropped" 0 (Circuit.length c)

(* Every gate kind but [Su4].  [~y:false] leaves out [Y], which phase
   folding rewrites as a phase and an [X]. *)
let random_gate_gen ?(y = true) n =
  let open QCheck2.Gen in
  let pairs =
    map
      (fun (a, d) ->
        let b = (a + 1 + d) mod n in
        a, b)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)))
  in
  let fixed k = map (fun q -> Gate.G1 (k, q)) (int_range 0 (n - 1)) in
  oneof
    [
      map (fun q -> h q) (int_range 0 (n - 1));
      map (fun q -> s q) (int_range 0 (n - 1));
      map (fun q -> sdg q) (int_range 0 (n - 1));
      fixed Gate.Z;
      fixed Gate.T;
      fixed Gate.Tdg;
      fixed Gate.X;
      fixed (if y then Gate.Y else Gate.X);
      map (fun (q, t) -> rz t q) (pair (int_range 0 (n - 1)) Helpers.angle_gen);
      map (fun (q, t) -> rx t q) (pair (int_range 0 (n - 1)) Helpers.angle_gen);
      map
        (fun (q, t) -> Gate.G1 (Gate.Ry t, q))
        (pair (int_range 0 (n - 1)) Helpers.angle_gen);
      map (fun (a, b) -> cnot a b) pairs;
      map (fun (a, b) -> Gate.Swap (a, b)) pairs;
      map
        (fun ((a, b), k) -> Gate.Cliff2 (Clifford2q.make k a b))
        (pair pairs (oneofl Clifford2q.all_kinds));
    ]

let prop_preserves_unitary =
  Helpers.qtest ~count:150 "peephole preserves the unitary (up to phase)"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25) (random_gate_gen 3))
    (fun gates ->
      let c = Circuit.create 3 gates in
      let c' = opt c in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.circuit_unitary c)
        (Unitary.circuit_unitary c'))

let prop_never_grows =
  Helpers.qtest ~count:150 "peephole never increases gate count"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25) (random_gate_gen 4))
    (fun gates ->
      let c = Circuit.create 4 gates in
      Circuit.length (opt c) <= Circuit.length c)

let prop_idempotent =
  Helpers.qtest ~count:100 "optimize is idempotent"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20) (random_gate_gen 3))
    (fun gates ->
      let c = opt (Circuit.create 3 gates) in
      Circuit.length (opt c) = Circuit.length c)

let test_normalize_angle () =
  let pi = 4.0 *. Float.atan 1.0 in
  Alcotest.(check (float 1e-9)) "0 stays" 0.0 (Lowering.normalize_angle 0.0);
  Alcotest.(check (float 1e-9))
    "4π → 0" 0.0
    (Lowering.normalize_angle (4.0 *. pi));
  Alcotest.(check (float 1e-9))
    "within range" 1.5
    (Lowering.normalize_angle 1.5);
  Alcotest.(check bool) "zero detection" true
    (Lowering.is_zero_angle (8.0 *. pi));
  Alcotest.(check bool) "2π is not zero (it is -I)" false
    (Lowering.is_zero_angle (2.0 *. pi))

(* --- phase folding --- *)

let test_fold_through_cnot_sandwich () =
  (* Rz(a) q1; CNOT; Rz(b) q1; CNOT; Rz(c) q1 : a and c share a parity *)
  let c =
    Circuit.create 2
      [ rz 0.3 1; cnot 0 1; rz 0.5 1; cnot 0 1; rz 0.4 1 ]
  in
  let folded = fold c in
  let rz_count =
    Circuit.count
      (fun g -> match g with Gate.G1 (Gate.Rz _, _) -> true | _ -> false)
      folded
  in
  Alcotest.(check int) "two rotations remain" 2 rz_count;
  Alcotest.(check bool) "unitary preserved" true
    (Helpers.unitary_equiv ~tol:1e-9
       (Unitary.circuit_unitary c)
       (Unitary.circuit_unitary folded))

let test_fold_cancels_inverse_pair () =
  let c = Circuit.create 2 [ rz 0.7 1; cnot 0 1; cnot 0 1; rz (-0.7) 1 ] in
  let folded = fold c in
  Alcotest.(check int) "rotations vanish" 0 (Circuit.count_1q folded)

let test_fold_respects_barriers () =
  let c = Circuit.create 1 [ rz 0.3 0; Gate.G1 (Gate.H, 0); rz (-0.3) 0 ] in
  let folded = fold c in
  (* H is a barrier: nothing may fold *)
  Alcotest.(check int) "kept" 3 (Circuit.length folded)

let test_fold_diagonal_cliffords () =
  (* S · S on the same wire = Z: folds to one Rz(π) *)
  let c = Circuit.create 1 [ Gate.G1 (Gate.S, 0); Gate.G1 (Gate.S, 0) ] in
  match Circuit.gates (fold c) with
  | [ Gate.G1 (Gate.Rz t, 0) ] ->
    Alcotest.(check (float 1e-9)) "π" (4.0 *. Float.atan 1.0) t
  | _ -> Alcotest.fail "expected a single merged rotation"

let test_fold_z () =
  (* Z folds as Rz(π); H·Z·H is X, not the √X an Rz(π/2) would give *)
  let c = Circuit.create 1 [ h 0; Gate.G1 (Gate.Z, 0); h 0 ] in
  Alcotest.(check bool) "unitary preserved" true
    (Helpers.unitary_equiv ~tol:1e-9
       (Unitary.circuit_unitary c)
       (Unitary.circuit_unitary (fold c)))

let prop_fold_preserves_unitary =
  Helpers.qtest ~count:120 "phase folding preserves the unitary"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25) (random_gate_gen 3))
    (fun gates ->
      let c = Circuit.create 3 gates in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.circuit_unitary c)
        (Unitary.circuit_unitary (fold c)))

let prop_fold_never_grows =
  Helpers.qtest ~count:100 "phase folding never increases gate count"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25)
       (random_gate_gen ~y:false 4))
    (fun gates ->
      let c = Circuit.create 4 gates in
      Circuit.length (fold c) <= Circuit.length c
      && Circuit.count_2q (fold c) = Circuit.count_2q c)

let prop_fold_y_bound =
  Helpers.qtest ~count:100 "phase folding adds at most one gate per Y"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25) (random_gate_gen 4))
    (fun gates ->
      let c = Circuit.create 4 gates in
      let ys =
        Circuit.count
          (fun g -> match g with Gate.G1 (Gate.Y, _) -> true | _ -> false)
          c
      in
      Circuit.length (fold c) <= Circuit.length c + ys
      && Circuit.count_2q (fold c) = Circuit.count_2q c)

let prop_fold_with_x_negation =
  Helpers.qtest ~count:120 "folding tracks X negation correctly"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20)
       (QCheck2.Gen.oneof
          [
            QCheck2.Gen.map (fun q -> Gate.G1 (Gate.X, q)) (QCheck2.Gen.int_range 0 2);
            QCheck2.Gen.map (fun q -> Gate.G1 (Gate.Y, q)) (QCheck2.Gen.int_range 0 2);
            QCheck2.Gen.map (fun (q, t) -> rz t q)
              (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 2) Helpers.angle_gen);
            QCheck2.Gen.map (fun q -> Gate.G1 (Gate.T, q)) (QCheck2.Gen.int_range 0 2);
            QCheck2.Gen.map
              (fun (a, d) ->
                let b = (a + 1 + d) mod 3 in
                cnot a b)
              (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 2) (QCheck2.Gen.int_range 0 1));
          ]))
    (fun gates ->
      let c = Circuit.create 3 gates in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.circuit_unitary c)
        (Unitary.circuit_unitary (fold c)))

let () =
  Alcotest.run "peephole"
    [
      ( "unit",
        [
          Alcotest.test_case "H·H" `Quick test_hh_cancels;
          Alcotest.test_case "CNOT·CNOT" `Quick test_cnot_cnot_cancels;
          Alcotest.test_case "reversed CNOT kept" `Quick
            test_cnot_reversed_not_cancelled;
          Alcotest.test_case "Rz merge" `Quick test_rz_merge;
          Alcotest.test_case "Rz inverse" `Quick test_rz_inverse_vanishes;
          Alcotest.test_case "S·S†" `Quick test_s_sdg_merge_to_nothing;
          Alcotest.test_case "Rz through control" `Quick
            test_rz_commutes_through_cnot_control;
          Alcotest.test_case "Rx through target" `Quick
            test_rx_commutes_through_cnot_target;
          Alcotest.test_case "CNOT through diagonal" `Quick
            test_cnot_cancel_through_diagonal;
          Alcotest.test_case "CNOT blocked by H" `Quick test_cnot_blocked_by_h;
          Alcotest.test_case "shared-control commute" `Quick
            test_cnot_shared_control_commute;
          Alcotest.test_case "Cliff2 cancel" `Quick test_cliff2_cancel;
          Alcotest.test_case "Swap cancel" `Quick test_swap_cancel;
          Alcotest.test_case "Rpp merge" `Quick test_rpp_merge;
          Alcotest.test_case "zero rotation" `Quick test_zero_rotation_dropped;
          Alcotest.test_case "angle normalization" `Quick test_normalize_angle;
        ] );
      ("props", [ prop_preserves_unitary; prop_never_grows; prop_idempotent ]);
      ( "phase-folding",
        [
          Alcotest.test_case "cnot sandwich" `Quick test_fold_through_cnot_sandwich;
          Alcotest.test_case "inverse pair" `Quick test_fold_cancels_inverse_pair;
          Alcotest.test_case "barriers" `Quick test_fold_respects_barriers;
          Alcotest.test_case "diagonal cliffords" `Quick test_fold_diagonal_cliffords;
          Alcotest.test_case "Z folds as π" `Quick test_fold_z;
          prop_fold_preserves_unitary;
          prop_fold_never_grows;
          prop_fold_y_bound;
          prop_fold_with_x_negation;
        ] );
    ]
