module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Clifford2q = Helpers.Clifford2q
module Pauli = Helpers.Pauli
module Endian = Order_reference.Endian
module Interaction = Order_reference.Interaction

let cnot a b = Gate.Cnot (a, b)
let h q = Gate.G1 (Gate.H, q)
let rz t q = Gate.G1 (Gate.Rz t, q)

let test_create_checks_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Circuit: gate CNOT q0,q3 outside register of 3 qubits")
    (fun () -> ignore (Circuit.create 3 [ cnot 0 3 ]))

let test_counts () =
  let c = Circuit.create 3 [ h 0; cnot 0 1; rz 0.5 1; cnot 0 1; h 0 ] in
  Alcotest.(check int) "total" 5 (Circuit.length c);
  Alcotest.(check int) "1q" 3 (Circuit.count_1q c);
  Alcotest.(check int) "2q" 2 (Circuit.count_2q c);
  Alcotest.(check int) "cnot cost" 2 (Circuit.count_cnot c)

let test_cnot_cost_expansion () =
  let c =
    Circuit.create 4
      [
        Gate.Cliff2 (Clifford2q.make Clifford2q.CXY 0 1);
        Gate.Rpp { p0 = Pauli.Z; p1 = Pauli.Z; a = 1; b = 2; theta = 0.3 };
        Gate.Swap (2, 3);
      ]
  in
  (* 1 + 2 + 3 *)
  Alcotest.(check int) "expanded cnot cost" 6 (Circuit.count_cnot c)

let test_depth () =
  (* parallel CNOTs on disjoint qubits share a layer *)
  let c = Circuit.create 4 [ cnot 0 1; cnot 2 3; cnot 1 2 ] in
  Alcotest.(check int) "2q depth" 2 (Circuit.depth_2q c);
  Alcotest.(check int) "full depth" 2 (Circuit.depth c)

let test_depth_ignores_1q () =
  let c = Circuit.create 2 [ h 0; h 0; h 0; cnot 0 1 ] in
  Alcotest.(check int) "2q depth ignores 1q" 1 (Circuit.depth_2q c);
  Alcotest.(check int) "full depth counts 1q" 4 (Circuit.depth c)

let test_layers () =
  let c = Circuit.create 4 [ cnot 0 1; h 2; cnot 2 3; cnot 1 2 ] in
  let layers = Circuit.layers_2q c in
  Alcotest.(check int) "two layers" 2 (List.length layers);
  Alcotest.(check int) "first layer size" 2 (List.length (List.nth layers 0));
  Alcotest.(check int) "second layer size" 1 (List.length (List.nth layers 1))

let test_dagger_involution () =
  let c =
    Circuit.create 3
      [ h 0; Gate.G1 (Gate.S, 1); cnot 0 2; rz 0.7 2; Gate.Swap (1, 2) ]
  in
  Alcotest.(check bool) "double dagger" true
    (Circuit.equal c (Circuit.dagger (Circuit.dagger c)))

let test_map_qubits () =
  let c = Circuit.create 3 [ cnot 0 1; h 2 ] in
  let c' = Circuit.map_qubits (fun q -> 2 - q) c in
  match Circuit.gates c' with
  | [ Gate.Cnot (2, 1); Gate.G1 (Gate.H, 0) ] -> ()
  | _ -> Alcotest.fail "unexpected mapping"

let test_concat_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Circuit.concat: qubit-count mismatch") (fun () ->
      ignore (Circuit.concat (Circuit.empty 2) (Circuit.empty 3)));
  Alcotest.check_raises "list mismatch"
    (Invalid_argument "Circuit.concat: qubit-count mismatch") (fun () ->
      ignore
        (Circuit.concat_list 2
           [ Circuit.create 2 [ cnot 0 1 ]; Circuit.empty 3; Circuit.empty 2 ]));
  Alcotest.(check (list string))
    "list order"
    [ "CNOT q0,q1"; "H q1"; "CNOT q1,q0" ]
    (List.map Gate.to_string
       (Circuit.gates
          (Circuit.concat_list 2
             [ Circuit.create 2 [ cnot 0 1 ]; Circuit.empty 2;
               Circuit.create 2 [ h 1; cnot 1 0 ] ])))

let test_used_qubits () =
  let c = Circuit.create 5 [ cnot 1 3 ] in
  Alcotest.(check (list int)) "used" [ 1; 3 ] (Circuit.used_qubits c)

(* Endian vectors: Fig. 3-style checks. *)
let test_endian_vectors () =
  (* layers: [cnot 0 1] ; [cnot 1 2]  on 4 qubits; qubit 3 untouched *)
  let c = Circuit.create 4 [ cnot 0 1; cnot 1 2 ] in
  Alcotest.(check (array int)) "e_l" [| 0; 0; 1; 2 |] (Endian.left c);
  Alcotest.(check (array int)) "e_r" [| 1; 0; 0; 2 |] (Endian.right c);
  Alcotest.(check int) "layers" 2 (Endian.num_layers c)

let test_endian_depth_cost () =
  let pre = Circuit.create 3 [ cnot 0 1 ] in
  let suc = Circuit.create 3 [ cnot 1 2 ] in
  (* e_r(pre) = [0;0;1], e_l(suc) = [1;0;0]: qubit 1 free on both sides →
     scenario II: sum = 2, minus n = 3 → -1 *)
  let cost = Endian.depth_cost ~e_r:(Endian.right pre) ~e_l':(Endian.left suc) in
  Alcotest.(check int) "overlapping" (-1) cost;
  (* blocked case: same subcircuit twice shares no free qubit on both ends *)
  let suc2 = Circuit.create 3 [ cnot 1 2; cnot 0 1 ] in
  let cost2 =
    Endian.depth_cost ~e_r:(Endian.right pre) ~e_l':(Endian.left suc2)
  in
  (* e_r = [0;0;1], e_l' = [1;0;... wait qubit1 is 0 on both → scenario II *)
  Alcotest.(check bool) "computed" true (cost2 <= 3)

let test_interaction_similarity_prefers_same_pairs () =
  let a = Circuit.create 4 [ cnot 0 1; cnot 2 3 ] in
  let same = Circuit.create 4 [ cnot 0 1; cnot 2 3 ] in
  let diff = Circuit.create 4 [ cnot 0 3; cnot 1 2 ] in
  let s_same = Interaction.similarity ~pre:a ~suc:same in
  let s_diff = Interaction.similarity ~pre:a ~suc:diff in
  Alcotest.(check bool) "similar > dissimilar" true (s_same >= s_diff)

let test_distance_matrix () =
  let adj = Interaction.adjacency 4 [ cnot 0 1; cnot 1 2 ] in
  let d = Interaction.distance_matrix adj in
  Alcotest.(check int) "d01" 1 d.(0).(1);
  Alcotest.(check int) "d02" 2 d.(0).(2);
  Alcotest.(check int) "d03 unreachable" 4 d.(0).(3);
  Alcotest.(check int) "d00" 0 d.(0).(0)

let prop_depth_le_length =
  Helpers.qtest "depth ≤ gate count"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
       (QCheck2.Gen.map
          (fun (a, d) ->
            let b = (a + 1 + d) mod 5 in
            Gate.Cnot (a, b))
          (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 4) (QCheck2.Gen.int_range 0 3))))
    (fun gates ->
      let c = Circuit.create 5 gates in
      Circuit.depth c <= Circuit.length c
      && Circuit.depth_2q c <= Circuit.count_2q c)

let prop_layers_partition =
  Helpers.qtest "2q layers partition the 2q gates"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
       (QCheck2.Gen.map
          (fun (a, d) ->
            let b = (a + 1 + d) mod 6 in
            Gate.Cnot (a, b))
          (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 5) (QCheck2.Gen.int_range 0 4))))
    (fun gates ->
      let c = Circuit.create 6 gates in
      let layers = Circuit.layers_2q c in
      List.fold_left (fun acc l -> acc + List.length l) 0 layers
      = Circuit.count_2q c
      && List.length layers = Circuit.depth_2q c)

(* The list implementation [Circuit.depth] replaced, kept as the
   reference: each gate's qubits as a list, folded. *)
let depth_reference ~only_2q c =
  let busy = Array.make (Circuit.num_qubits c) 0 in
  let dep = ref 0 in
  let place g =
    let qs = Gate.qubits g in
    let ready = List.fold_left (fun acc q -> max acc busy.(q)) 0 qs in
    let counts = (not only_2q) || Gate.is_two_qubit g in
    let layer = if counts then ready + 1 else ready in
    List.iter (fun q -> busy.(q) <- layer) qs;
    if layer > !dep then dep := layer
  in
  List.iter place (Circuit.gates c);
  !dep

(* Circuits of every gate kind on up to 6 qubits. *)
let any_gate_circuit_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 6 in
  let q = int_range 0 (n - 1) in
  let pair =
    map (fun (a, d) -> (a, (a + 1 + d) mod n)) (pair q (int_range 0 (n - 2)))
  in
  let gate =
    oneof
      [
        map (fun q -> Gate.G1 (Gate.H, q)) q;
        map (fun q -> Gate.G1 (Gate.Rz 0.5, q)) q;
        map (fun (a, b) -> Gate.Cnot (a, b)) pair;
        map (fun (a, b) -> Gate.Swap (a, b)) pair;
        map2
          (fun (a, b) k -> Gate.Cliff2 (Clifford2q.make k a b))
          pair (oneofl Clifford2q.all_kinds);
        map (fun (a, b) -> Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Z; a; b; theta = 0.3 }) pair;
        map
          (fun (a, b) -> Gate.Su4 { a; b; parts = [ Gate.Cnot (a, b); Gate.G1 (Gate.H, b) ] })
          pair;
      ]
  in
  map (Circuit.create n) (list_size (int_range 0 40) gate)

let prop_depth_matches_reference =
  Helpers.qtest ~count:500 "depth and depth_2q = list reference, every gate kind"
    any_gate_circuit_gen
    (fun c ->
      Circuit.depth c = depth_reference ~only_2q:false c
      && Circuit.depth_2q c = depth_reference ~only_2q:true c)

(* [Pass.metrics_of] takes the 2Q depth at every pass boundary: on
   CH2_cmplt_BK's compiled circuit a call allocates the register-sized
   [busy] array and a constant, nothing per gate. *)
let test_depth_2q_allocation () =
  let h =
    match Phoenix_serve.Workload.of_spec "uccsd:CH2_cmplt_BK" with
    | Ok h -> h
    | Error msg -> Alcotest.fail msg
  in
  let c =
    (Phoenix_pipeline.Registry.compile Phoenix_pipeline.Registry.phoenix h)
      .Phoenix.Compiler.circuit
  in
  let depth = Circuit.depth_2q c in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Circuit.depth_2q c));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "a large circuit" true (Circuit.length c > 10_000);
  Alcotest.(check int) "2Q depth = list reference" (depth_reference ~only_2q:true c) depth;
  if words > float_of_int (Circuit.num_qubits c + 1 + 16) then
    Alcotest.failf "depth_2q allocated %.0f words on %d gates over %d qubits" words
      (Circuit.length c) (Circuit.num_qubits c)

let () =
  Alcotest.run "circuit"
    [
      ( "unit",
        [
          Alcotest.test_case "range check" `Quick test_create_checks_range;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "cnot cost expansion" `Quick test_cnot_cost_expansion;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "depth ignores 1q" `Quick test_depth_ignores_1q;
          Alcotest.test_case "layers" `Quick test_layers;
          Alcotest.test_case "dagger involution" `Quick test_dagger_involution;
          Alcotest.test_case "map qubits" `Quick test_map_qubits;
          Alcotest.test_case "concat mismatch" `Quick test_concat_mismatch;
          Alcotest.test_case "used qubits" `Quick test_used_qubits;
        ] );
      ( "endian",
        [
          Alcotest.test_case "vectors" `Quick test_endian_vectors;
          Alcotest.test_case "depth cost" `Quick test_endian_depth_cost;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "similarity" `Quick
            test_interaction_similarity_prefers_same_pairs;
          Alcotest.test_case "distance matrix" `Quick test_distance_matrix;
        ] );
      ( "props",
        [ prop_depth_le_length; prop_layers_partition; prop_depth_matches_reference ] );
      ( "alloc",
        [ Alcotest.test_case "depth_2q allocates no words per gate" `Quick test_depth_2q_allocation ] );
    ]
