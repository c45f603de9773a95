module Pauli_string = Helpers.Pauli_string
module Circuit = Helpers.Circuit
module Gate = Helpers.Gate
module Unitary = Helpers.Unitary
module Diagonalize = Phoenix_circuit.Diagonalize
module Qan2_like = Phoenix_baselines.Qan2_like
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Topology = Phoenix_topology.Topology
module Layout = Phoenix_router.Layout

let ps = Pauli_string.of_string

let compile ?options entry n gadgets =
  (Registry.compile_gadgets ?options entry n gadgets).Compiler.circuit

let hardware ?(peephole = true) topo =
  { Compiler.default_options with target = Compiler.Hardware topo; peephole }

(* --- diagonalization --- *)

let test_diag_rejects_anticommuting () =
  Alcotest.check_raises "anticommuting"
    (Invalid_argument "Diagonalize.run: inputs do not commute") (fun () ->
      ignore (Diagonalize.run 2 [ ps "XI", 0.1; ps "ZI", 0.2 ]))

let is_z_only p =
  List.for_all
    (fun q -> Pauli_string.get p q = Phoenix_pauli.Pauli.Z)
    (Pauli_string.support_list p)

let test_diag_output_z_only () =
  let d = Diagonalize.run 3 [ ps "XXI", 0.1; ps "YYI", 0.2; ps "ZZI", 0.3 ] in
  List.iter
    (fun (p, _) -> Alcotest.(check bool) "z only" true (is_z_only p))
    d.Diagonalize.diagonal

(* Generate a random commuting set by conjugating Z-only strings. *)
let commuting_set_gen n =
  let open QCheck2.Gen in
  let z_string =
    map
      (fun bits ->
        List.mapi (fun _ b -> if b then Phoenix_pauli.Pauli.Z else Phoenix_pauli.Pauli.I) bits
        |> Pauli_string.of_list)
      (list_size (return n) bool)
  in
  let* raw = list_size (int_range 1 5) (pair z_string Helpers.angle_gen) in
  let raw = List.filter (fun (p, _) -> not (Pauli_string.is_identity p)) raw in
  let* cliffs = list_size (int_range 0 4) (Helpers.clifford2q_gen n) in
  let conj (p, a) =
    let bsf = Phoenix_pauli.Bsf.of_terms n [ p, a ] in
    List.iter (Phoenix_pauli.Bsf.apply_clifford2q bsf) cliffs;
    match Phoenix_pauli.Bsf.to_terms bsf with
    | [ t ] -> t
    | _ -> assert false
  in
  return (List.map conj raw)

let prop_diag_unitary_equiv =
  Helpers.qtest ~count:80 "diagonalization preserves the set's unitary"
    (commuting_set_gen 3)
    (fun set ->
      set = []
      ||
      let d = Diagonalize.run 3 set in
      let c = Circuit.create 3 d.Diagonalize.clifford in
      let gadget_gates =
        List.concat_map
          (fun (p, a) ->
            Circuit.gates (Phoenix.Synthesis.naive_gadget_circuit 3 [ p, a ]))
          d.Diagonalize.diagonal
      in
      let full =
        Circuit.create 3
          (Circuit.gates c @ gadget_gates
          @ List.rev_map Gate.dagger d.Diagonalize.clifford)
      in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.program_unitary 3 set)
        (Unitary.circuit_unitary full))

let prop_diag_all_z =
  Helpers.qtest ~count:80 "diagonal part is Z-only" (commuting_set_gen 4)
    (fun set ->
      set = []
      ||
      let d = Diagonalize.run 4 set in
      List.for_all (fun (p, _) -> is_z_only p) d.Diagonalize.diagonal)

let test_partition_commuting () =
  let sets =
    Diagonalize.partition_commuting
      [ ps "XX", 0.1; ps "YY", 0.2; ps "ZI", 0.3; ps "IZ", 0.4 ]
  in
  (* XX,YY commute; ZI anticommutes with XX/YY; IZ joins ZI's set *)
  Alcotest.(check int) "two sets" 2 (List.length sets);
  Alcotest.(check int) "first set size" 2 (List.length (List.nth sets 0))

(* --- logical baselines: correctness on commuting programs --- *)

let qaoa_program n seed =
  let g = Phoenix_ham.Graphs.erdos_renyi ~seed ~p:0.5 n in
  Phoenix_ham.Hamiltonian.trotter_gadgets (Phoenix_ham.Qaoa.maxcut_cost g)

let check_compiler_correct entry =
  let gadgets = qaoa_program 4 11 in
  let reference = Unitary.program_unitary 4 gadgets in
  let circ = compile entry 4 gadgets in
  Helpers.check_equiv ~tol:1e-7 (entry.Registry.name ^ " unitary") reference
    (Unitary.circuit_unitary circ)

let test_naive_correct () = check_compiler_correct Registry.naive
let test_tket_correct () = check_compiler_correct Registry.tket
let test_paulihedral_correct () = check_compiler_correct Registry.paulihedral
let test_tetris_correct () = check_compiler_correct Registry.tetris

let test_tket_beats_naive_on_uccsd () =
  let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
  let ham = Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding b.Phoenix_ham.Molecules.spec in
  let g = Phoenix_ham.Hamiltonian.trotter_gadgets ham in
  let naive = Circuit.count_cnot (compile Registry.naive 10 g) in
  let tket = Circuit.count_cnot (compile Registry.tket 10 g) in
  Alcotest.(check bool) "tket < naive/2" true (tket * 2 < naive)

(* --- 2QAN-like --- *)

let test_qan2_rejects_weight3 () =
  Alcotest.check_raises "weight 3"
    (Invalid_argument "Qan2_like: gadget of weight > 2") (fun () ->
      ignore
        (compile ~options:(hardware (Topology.line 4)) Registry.qan2 4
           [ ps "ZZZI", 0.1 ]))

let test_qan2_respects_topology () =
  let topo = Topology.heavy_hex ~widths:[ 5; 5 ] in
  let g = Phoenix_ham.Graphs.random_regular ~seed:5 ~degree:3 8 in
  let gadgets =
    Phoenix_ham.Hamiltonian.trotter_gadgets (Phoenix_ham.Qaoa.maxcut_cost g)
  in
  let c = compile ~options:(hardware topo) Registry.qan2 8 gadgets in
  List.iter
    (fun gate ->
      match Gate.pair gate with
      | Some (a, b) ->
        Alcotest.(check bool) "adjacent" true (Topology.are_adjacent topo a b)
      | None -> ())
    (Circuit.gates c)

let test_qan2_place_injective () =
  let topo = Topology.ibm_manhattan () in
  let g = Phoenix_ham.Graphs.random_regular ~seed:5 ~degree:4 16 in
  let gadgets =
    Phoenix_ham.Hamiltonian.trotter_gadgets (Phoenix_ham.Qaoa.maxcut_cost g)
  in
  let layout = Qan2_like.place topo 16 gadgets in
  let sites = List.init 16 (fun l -> Layout.physical_of layout l) in
  Alcotest.(check int) "injective" 16 (List.length (List.sort_uniq compare sites))

let test_qan2_emits_all_interactions () =
  let topo = Topology.line 6 in
  let g = Phoenix_ham.Graphs.cycle 6 in
  let gadgets =
    Phoenix_ham.Hamiltonian.trotter_gadgets (Phoenix_ham.Qaoa.maxcut_cost g)
  in
  let c =
    compile ~options:(hardware ~peephole:false topo) Registry.qan2 6 gadgets
  in
  (* 6 edges → 6 Rz rotations in the lowered circuit *)
  let rz_count =
    Circuit.count
      (fun gate -> match gate with Gate.G1 (Gate.Rz _, _) -> true | _ -> false)
      c
  in
  Alcotest.(check int) "all interactions present" 6 rz_count

let () =
  Alcotest.run "baselines"
    [
      ( "diagonalize",
        [
          Alcotest.test_case "rejects anticommuting" `Quick
            test_diag_rejects_anticommuting;
          Alcotest.test_case "z-only output" `Quick test_diag_output_z_only;
          prop_diag_unitary_equiv;
          prop_diag_all_z;
          Alcotest.test_case "partition" `Quick test_partition_commuting;
        ] );
      ( "logical",
        [
          Alcotest.test_case "naive correct" `Quick test_naive_correct;
          Alcotest.test_case "tket correct" `Quick test_tket_correct;
          Alcotest.test_case "paulihedral correct" `Quick test_paulihedral_correct;
          Alcotest.test_case "tetris correct" `Quick test_tetris_correct;
          Alcotest.test_case "tket beats naive" `Slow test_tket_beats_naive_on_uccsd;
        ] );
      ( "qan2",
        [
          Alcotest.test_case "rejects weight-3" `Quick test_qan2_rejects_weight3;
          Alcotest.test_case "respects topology" `Quick test_qan2_respects_topology;
          Alcotest.test_case "placement injective" `Quick test_qan2_place_injective;
          Alcotest.test_case "all interactions" `Quick test_qan2_emits_all_interactions;
        ] );
    ]
