(* PHOENIX core: grouping, Algorithm-1 simplification, synthesis,
   Tetris-like ordering, and the full compiler pipeline. *)

module Pauli_string = Helpers.Pauli_string
module Bsf = Helpers.Bsf
module Circuit = Helpers.Circuit
module Gate = Helpers.Gate
module Unitary = Helpers.Unitary
module Group = Phoenix.Group
module Simplify = Phoenix.Simplify
module Synthesis = Phoenix.Synthesis
module Order = Phoenix.Order
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Rebase = Phoenix_circuit.Rebase
module Topology = Phoenix_topology.Topology

let ps = Pauli_string.of_string

(* --- grouping --- *)

let test_grouping_by_support () =
  let gadgets =
    [ ps "XXI", 0.1; ps "IZZ", 0.2; ps "YYI", 0.3; ps "ZIZ", 0.4 ]
  in
  let groups = Group.group_gadgets 3 gadgets in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  (* first group holds both terms on {0,1}, in program order *)
  match groups with
  | g :: _ ->
    Alcotest.(check int) "two terms" 2 (List.length g.Group.terms);
    Alcotest.(check int) "weight" 2 (Group.weight g)
  | [] -> Alcotest.fail "no groups"

let test_grouping_drops_identity () =
  let groups = Group.group_gadgets 2 [ ps "II", 0.5; ps "XX", 0.1 ] in
  Alcotest.(check int) "identity dropped" 1 (List.length groups)

let test_grouping_exact_order () =
  (* XX / ZI / XX: merging the second XX into the first group would move
     it past the anticommuting ZI.  Greedy grouping does (it is only
     Trotter-equivalent); exact grouping must not. *)
  let gadgets = [ ps "XX", 0.1; ps "ZI", 0.2; ps "XX", 0.3 ] in
  Alcotest.(check int) "greedy merges" 2
    (List.length (Group.group_gadgets 2 gadgets));
  Alcotest.(check int) "exact keeps order" 3
    (List.length (Group.group_gadgets ~exact:true 2 gadgets));
  (* commuting interleaving still merges in exact mode *)
  let gadgets' = [ ps "XX", 0.1; ps "IZ", 0.2; ps "ZI", 0.25; ps "XX", 0.3 ] in
  Alcotest.(check int) "exact grouping is inexact-free, not timid" 4
    (List.length (Group.group_gadgets ~exact:true 2 gadgets'));
  let commuting = [ ps "ZZ", 0.1; ps "ZI", 0.2; ps "ZZ", 0.3 ] in
  Alcotest.(check int) "exact merges across commuting groups" 2
    (List.length (Group.group_gadgets ~exact:true 2 commuting))

let test_of_blocks () =
  let blocks = [ [ ps "XXI", 0.1; ps "IZZ", 0.2 ]; []; [ ps "YII", 0.3 ] ] in
  let groups = Group.of_blocks 3 blocks in
  Alcotest.(check int) "two groups (empty dropped)" 2 (List.length groups);
  match groups with
  | g :: _ ->
    Alcotest.(check int) "union support" 3 (Group.weight g)
  | [] -> Alcotest.fail "no groups"

let test_all_commuting () =
  let commuting = Group.of_blocks 2 [ [ ps "XX", 0.1; ps "YY", 0.2 ] ] in
  let anti = Group.of_blocks 2 [ [ ps "XX", 0.1; ps "ZI", 0.2 ] ] in
  (match commuting, anti with
  | [ c ], [ a ] ->
    Alcotest.(check bool) "commuting" true (Group.all_commuting c);
    Alcotest.(check bool) "anticommuting" false (Group.all_commuting a)
  | _ -> Alcotest.fail "unexpected grouping")

(* Words [Group.group_gadgets] allocates per gadget on [n] qubits, for
   1000 ZZ gadgets on the 10 edges of a path (100 gadgets per group).
   A register-wide support built for every gadget grows the words per
   gadget with the register; one built only for each new group leaves
   them nearly flat. *)
let group_words_per_gadget ~exact n =
  let zz i =
    Pauli_string.of_list
      (List.init n (fun q ->
           if q = i || q = i + 1 then Phoenix_pauli.Pauli.Z
           else Phoenix_pauli.Pauli.I))
  in
  let edges = Array.init 10 zz in
  let gadgets = List.init 1000 (fun j -> (edges.(j mod 10), 0.1)) in
  let before = Gc.minor_words () in
  let groups = Sys.opaque_identity (Group.group_gadgets ~exact n gadgets) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "ten groups" 10 (List.length groups);
  words /. 1000.0

let test_grouping_words_flat_in_register () =
  List.iter
    (fun exact ->
      let small = group_words_per_gadget ~exact 250 in
      let large = group_words_per_gadget ~exact 1000 in
      if large /. small > 1.1 then
        Alcotest.failf
          "group words per gadget (exact %b) grew %.2f× from 250 qubits \
           (%.1f) to 1000 (%.1f); a support per group keeps it within 1.1×"
          exact (large /. small) small large)
    [ false; true ]

(* --- simplification: structure and invariants --- *)

let test_simplify_terminates_weight2 () =
  let cfg = Simplify.run 3 [ ps "XXI", 0.3 ] in
  (* already weight ≤ 2: no cliffords needed *)
  Alcotest.(check int) "no cliffords" 0 (Simplify.num_cliffords cfg);
  Alcotest.(check int) "core has the term" 1 (List.length (Simplify.core_terms cfg))

let test_simplify_fig1b () =
  let strings = [ "ZYY"; "ZZY"; "XYY"; "XZY" ] in
  let cfg = Simplify.run 3 (List.map (fun s -> ps s, 0.5) strings) in
  let core = Simplify.core_terms cfg in
  List.iter
    (fun (p, _) ->
      Alcotest.(check bool) "core weight ≤ 2" true (Pauli_string.weight p <= 2))
    core;
  (* Fig. 1(b): one Clifford conjugation suffices *)
  Alcotest.(check bool) "few cliffords" true (Simplify.num_cliffords cfg <= 4)

let angles_multiset cfg =
  let collect = function
    | Simplify.Cliff _ -> []
    | Simplify.Rotations rs | Simplify.Core rs ->
      List.map (fun (_, a) -> Float.abs a) rs
  in
  List.sort compare (List.concat_map collect cfg)

let prop_simplify_preserves_angles =
  Helpers.qtest ~count:80 "simplification preserves |angle| multiset"
    (Helpers.terms_gen 4 6)
    (fun terms ->
      let cfg = Simplify.run 4 terms in
      angles_multiset cfg
      = List.sort compare (List.map (fun (_, a) -> Float.abs a) terms))

let prop_simplify_core_weight =
  Helpers.qtest ~count:80 "core total weight ≤ 2 (or all rows local)"
    (Helpers.terms_gen 5 6)
    (fun terms ->
      let cfg = Simplify.run 5 terms in
      let core = Simplify.core_terms cfg in
      let bsf = Phoenix_pauli.Bsf.of_terms 5 core in
      Bsf.total_weight bsf <= 2 || Bsf.nonlocal_count bsf = 0)

(* The crown jewel: exact-mode simplification + synthesis is unitarily
   equivalent to the gadget product. *)
let prop_simplify_exact_unitary =
  Helpers.qtest ~count:60 "exact simplify+synthesis ≡ gadget product"
    (Helpers.terms_gen 3 5)
    (fun terms ->
      let cfg = Simplify.run ~exact:true 3 terms in
      let circ = Synthesis.cfg_to_circuit 3 cfg in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.program_unitary 3 terms)
        (Unitary.circuit_unitary circ))

let prop_simplify_commuting_default_unitary =
  (* With pairwise-commuting input, peeling is exact even by default. *)
  Helpers.qtest ~count:60 "commuting groups: default mode is exact"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 5)
       (QCheck2.Gen.pair
          (QCheck2.Gen.oneofl
             [ ps "ZZI"; ps "IZZ"; ps "ZIZ"; ps "ZII"; ps "IZI" ])
          Helpers.angle_gen))
    (fun terms ->
      let cfg = Simplify.run 3 terms in
      let circ = Synthesis.cfg_to_circuit 3 cfg in
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.program_unitary 3 terms)
        (Unitary.circuit_unitary circ))

(* --- simplification: the pair scan = the copy-and-apply search --- *)

(* Every group the pipeline forms for the nine benchmark UCCSD programs
   and fermi-hubbard:5x5, relabelled onto its support as the simplify
   pass does it, must simplify to the configuration of the historical
   search (test/simplify_reference.ml): the same Cliffords, rotations
   and core, bit for bit, in default and in exact mode.  One search-state
   memo serves every group of every program in both modes, so many
   epochs replay a scan stored by another group, program or mode. *)
let differential_programs =
  [ "uccsd:LiH_frz_JW"; "uccsd:LiH_frz_BK"; "uccsd:NH_frz_JW";
    "uccsd:NH_frz_BK"; "uccsd:LiH_cmplt_JW"; "uccsd:H2O_frz_JW";
    "uccsd:H2O_frz_BK"; "uccsd:CH2_frz_BK"; "uccsd:CH2_cmplt_BK";
    "fermi-hubbard:5x5" ]

let program_groups ~exact spec =
  let h =
    match Phoenix_serve.Workload.of_spec spec with
    | Ok h -> h
    | Error msg -> Alcotest.failf "%s: %s" spec msg
  in
  let n = Phoenix_ham.Hamiltonian.num_qubits h in
  match Phoenix_ham.Hamiltonian.gadget_blocks h with
  | Some blocks -> Group.of_blocks n blocks
  | None ->
    Group.group_gadgets ~exact n (Phoenix_ham.Hamiltonian.trotter_gadgets h)

let test_simplify_matches_reference () =
  let memo = Bsf.Delta.create_memo () in
  List.iter
    (fun exact ->
      List.iter
        (fun spec ->
          List.iteri
            (fun i (g : Group.t) ->
              let sites, terms = Helpers.on_support g.Group.n g.Group.terms in
              let k = Array.length sites in
              if
                not
                  (Simplify_reference.equal_config
                     (Simplify.run ~exact ~memo k terms)
                     (Simplify_reference.run ~exact k terms))
              then
                Alcotest.failf "%s group %d (%d qubits, exact %b): Simplify.run \
                                differs from the reference"
                  spec i k exact)
            (program_groups ~exact spec))
        differential_programs)
    [ false; true ]

(* The repeated search states of one compile: the simplify pass shares
   one memo across a program's groups, so on one domain with the cache
   off the memo's scans are the program's distinct search states.
   LiH_cmplt_JW scans 35 of them for 948 greedy epochs. *)
let test_memo_scan_counts () =
  List.iter
    (fun (spec, calls, scans) ->
      let memo = Bsf.Delta.create_memo () in
      List.iter
        (fun (g : Group.t) ->
          let sites, terms = Helpers.on_support g.Group.n g.Group.terms in
          ignore (Simplify.run ~memo (Array.length sites) terms))
        (program_groups ~exact:false spec);
      Alcotest.(check (pair int int))
        (spec ^ ": calls, scans")
        (calls, scans)
        (Bsf.Delta.memo_counts memo))
    [ ("uccsd:LiH_cmplt_JW", 948, 35); ("uccsd:CH2_cmplt_BK", 2608, 1107) ]

(* --- synthesis --- *)

let test_rotation_gates () =
  let gates = Synthesis.rotation_gates [ ps "IXI", 0.2; ps "ZIY", 0.4 ] in
  (match gates with
  | [ Gate.G1 (Gate.Rx t, 1); Gate.Rpp { a = 0; b = 2; theta; _ } ] ->
    Alcotest.(check (float 1e-12)) "rx angle" 0.2 t;
    Alcotest.(check (float 1e-12)) "rpp angle" 0.4 theta
  | _ -> Alcotest.fail "unexpected gates");
  Alcotest.check_raises "weight 3 rejected"
    (Invalid_argument "Synthesis.rotation_gates: weight > 2 gadget") (fun () ->
      ignore (Synthesis.rotation_gates [ ps "XYZ", 0.1 ]))

let prop_naive_circuit_unitary =
  Helpers.qtest ~count:60 "naive ladder synthesis ≡ gadget product"
    (Helpers.terms_gen 3 4)
    (fun terms ->
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.program_unitary 3 terms)
        (Unitary.circuit_unitary (Synthesis.naive_gadget_circuit 3 terms)))

let prop_naive_zfirst_unitary =
  Helpers.qtest ~count:60 "Z-first ladder synthesis ≡ gadget product"
    (Helpers.terms_gen 3 4)
    (fun terms ->
      Helpers.unitary_equiv ~tol:1e-7
        (Unitary.program_unitary 3 terms)
        (Unitary.circuit_unitary
           (Synthesis.naive_gadget_circuit ~chain:`Z_first 3 terms)))

(* --- ordering --- *)

let block_of terms n =
  match Group.of_blocks n [ terms ] with
  | [ g ] -> { Order.group = g; circuit = Synthesis.group_circuit g }
  | _ -> Alcotest.fail "expected one group"

let test_order_keeps_all_blocks () =
  let blocks =
    [
      block_of [ ps "XXII", 0.1 ] 4;
      block_of [ ps "IIZZ", 0.2 ] 4;
      block_of [ ps "ZZZZ", 0.3 ] 4;
    ]
  in
  let ordered = Order.order blocks in
  Alcotest.(check int) "same count" 3 (List.length ordered);
  let b = List.hd blocks in
  Alcotest.(check int) "shared records kept" 3
    (List.length (Order.order [ b; b; b ]));
  Alcotest.check_raises "lookahead 0"
    (Invalid_argument "Order.order: lookahead must be at least 1") (fun () ->
      ignore (Order.order ~lookahead:0 blocks));
  (* widest first *)
  match ordered with
  | first :: _ ->
    Alcotest.(check int) "widest first" 4 (Group.weight first.Order.group)
  | [] -> Alcotest.fail "empty"

let test_exposed_cliffords () =
  let c = Phoenix_pauli.Clifford2q.make Phoenix_pauli.Clifford2q.CXY 0 1 in
  let circ =
    Circuit.create 3
      [ Gate.Cliff2 c; Gate.Rpp { p0 = Phoenix_pauli.Pauli.Z; p1 = Phoenix_pauli.Pauli.Z; a = 0; b = 1; theta = 0.5 } ]
  in
  Alcotest.(check int) "leading exposed" 1
    (List.length (Order_reference.exposed_boundary_cliffords `Leading circ));
  Alcotest.(check int) "trailing shadowed" 0
    (List.length (Order_reference.exposed_boundary_cliffords `Trailing circ))

let test_assembly_cost_rewards_cancellation () =
  let c = Phoenix_pauli.Clifford2q.make Phoenix_pauli.Clifford2q.CZZ 0 1 in
  let zz = Gate.Rpp { p0 = Phoenix_pauli.Pauli.Z; p1 = Phoenix_pauli.Pauli.Z; a = 0; b = 1; theta = 0.5 } in
  let with_cliff = Circuit.create 2 [ Gate.Cliff2 c; zz; Gate.Cliff2 c ] in
  let plain = Circuit.create 2 [ zz; zz; zz ] in
  let g = match Group.of_blocks 2 [ [ ps "XX", 0.1 ] ] with [ g ] -> g | _ -> assert false in
  let b_cliff = { Order.group = g; circuit = with_cliff } in
  let b_plain = { Order.group = g; circuit = plain } in
  let cost_cancel = Order.assembly_cost b_cliff b_cliff in
  let cost_plain = Order.assembly_cost b_plain b_plain in
  Alcotest.(check bool) "cancellation cheaper" true (cost_cancel < cost_plain)

(* --- ordering: summary-based cost = the register-wide reference --- *)

let one_q_gen n =
  let open QCheck2.Gen in
  let* k =
    oneofl Gate.[ H; S; Sdg; X; Y; Z; T; Tdg; Rx 0.3; Ry (-0.7); Rz 1.1 ]
  in
  let* q = int_range 0 (n - 1) in
  return (Gate.G1 (k, q))

(* Random gates over [n] qubits: every 2Q kind the ordering cost sees,
   Clifford2Q gates of all six kinds in both operand orders. *)
let gate_gen n =
  let open QCheck2.Gen in
  if n < 2 then one_q_gen n
  else
    let pair =
      let* a = int_range 0 (n - 1) in
      let* b = int_range 0 (n - 2) in
      return (a, if b >= a then b + 1 else b)
    in
    let sigma = oneofl Phoenix_pauli.Pauli.[ X; Y; Z ] in
    frequency
      [
        2, one_q_gen n;
        2, map (fun (a, b) -> Gate.Cnot (a, b)) pair;
        4, map (fun c -> Gate.Cliff2 c) (Helpers.clifford2q_gen n);
        2,
        (let* a, b = pair and* p0 = sigma and* p1 = sigma in
         return (Gate.Rpp { p0; p1; a; b; theta = 0.4 }));
        1, map (fun (a, b) -> Gate.Swap (a, b)) pair;
      ]

(* Empty circuits, 1Q-only circuits (no 2Q layer) and mixed ones. *)
let order_circuit_gen n =
  let open QCheck2.Gen in
  let gates g = list_size (int_range 0 12) g in
  map (Circuit.create n)
    (frequency [ 1, return []; 1, gates (one_q_gen n); 6, gates (gate_gen n) ])

let order_block_gen n =
  let open QCheck2.Gen in
  let* w = Helpers.pauli_string_gen n and* circuit = order_circuit_gen n in
  return { Order.group = Group.of_terms n [ w, 0.1 ]; circuit }

let print_block b = Format.asprintf "%a" Circuit.pp b.Order.circuit

let cost_bits_agree ~routing_aware prev next =
  Int64.equal
    (Int64.bits_of_float (Order.assembly_cost ~routing_aware prev next))
    (Int64.bits_of_float
       (Order_reference.assembly_cost ~routing_aware prev next))

let prop_assembly_cost_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"assembly cost = reference bit for bit"
       ~print:(fun (a, b) -> print_block a ^ "\n" ^ print_block b)
       QCheck2.Gen.(
         let* n = int_range 1 8 in
         pair (order_block_gen n) (order_block_gen n))
       (fun (a, b) ->
         cost_bits_agree ~routing_aware:false a b
         && cost_bits_agree ~routing_aware:true a b))

(* Positions of [ordered]'s records in [blocks] (physical identity). *)
let index_sequence blocks ordered =
  List.map
    (fun b ->
      match List.find_index (fun b' -> b' == b) blocks with
      | Some i -> i
      | None -> -1)
    ordered

let prop_order_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"order = reference index sequence"
       ~print:(fun (blocks, lookahead, routing_aware) ->
         Printf.sprintf "%d blocks, lookahead %d, routing_aware %b:\n%s"
           (List.length blocks) lookahead routing_aware
           (String.concat "\n" (List.map print_block blocks)))
       QCheck2.Gen.(
         let* n = int_range 1 8 in
         let* blocks = list_size (int_range 0 40) (order_block_gen n) in
         let* lookahead = int_range 1 12 and* routing_aware = bool in
         return (blocks, lookahead, routing_aware))
       (fun (blocks, lookahead, routing_aware) ->
         index_sequence blocks (Order.order ~lookahead ~routing_aware blocks)
         = index_sequence blocks
             (Order_reference.order ~lookahead ~routing_aware blocks)))

(* The blocks a real compile hands to the order pass. *)
let blocks_at_order ?target spec =
  let h =
    match Phoenix_serve.Workload.of_spec spec with
    | Ok h -> h
    | Error msg -> Alcotest.failf "%s: %s" spec msg
  in
  let captured = ref [] in
  let hook ~(pass : Phoenix.Pass.t) ~before ~after:_ ~seconds:_ =
    if pass.Phoenix.Pass.name = "order" then
      captured := before.Phoenix.Pass.blocks
  in
  let options =
    {
      Compiler.default_options with
      target = Option.value ~default:Compiler.Logical target;
      cache = Phoenix_cache.Cache.Off;
    }
  in
  ignore (Registry.compile ~options ~hooks:[ hook ] Registry.phoenix h);
  !captured

let test_real_blocks_match_reference () =
  let hh = Compiler.Hardware (Topology.ibm_manhattan ()) in
  List.iter
    (fun (spec, target) ->
      let blocks = blocks_at_order ?target spec in
      Alcotest.(check bool) (spec ^ " captured blocks") true
        (List.length blocks > 1);
      List.iter
        (fun prev ->
          List.iter
            (fun next ->
              List.iter
                (fun routing_aware ->
                  if not (cost_bits_agree ~routing_aware prev next) then
                    Alcotest.failf "%s: cost differs (routing_aware %b)" spec
                      routing_aware)
                [ false; true ])
            blocks)
        blocks;
      List.iter
        (fun routing_aware ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s order (routing_aware %b)" spec routing_aware)
            (index_sequence blocks
               (Order_reference.order ~routing_aware blocks))
            (index_sequence blocks (Order.order ~routing_aware blocks)))
        [ false; true ])
    [
      "uccsd:LiH_frz_JW", None;
      "uccsd:LiH_frz_JW", Some hh;
      "qaoa:Reg3-16", None;
      "qaoa:Reg3-16", Some hh;
    ]

(* --- compiler pipeline --- *)

let heisenberg4 = Phoenix_ham.Spin_models.heisenberg_chain 4

let test_compile_logical_cnot () =
  let r = Registry.compile Registry.phoenix heisenberg4 in
  Alcotest.(check bool) "has 2q gates" true (r.Compiler.two_q_count > 0);
  Alcotest.(check bool) "depth ≤ count" true
    (r.Compiler.depth_2q <= r.Compiler.two_q_count);
  Alcotest.(check int) "no swaps" 0 r.Compiler.num_swaps;
  (* CNOT basis: every 2Q gate is a CNOT *)
  List.iter
    (fun g ->
      match g with
      | Gate.Cnot _ | Gate.G1 _ -> ()
      | _ -> Alcotest.fail "non-basis gate in CNOT ISA output")
    (Circuit.gates r.Compiler.circuit)

let test_compile_exact_unitary () =
  let options = { Compiler.default_options with exact = true } in
  let r = Registry.compile ~options Registry.phoenix heisenberg4 in
  let reference =
    Unitary.program_unitary 4 (Phoenix_ham.Hamiltonian.trotter_gadgets heisenberg4)
  in
  Helpers.check_equiv ~tol:1e-7 "pipeline output equivalent" reference
    (Unitary.circuit_unitary r.Compiler.circuit)

let test_compile_su4 () =
  let options = { Compiler.default_options with isa = Compiler.Su4_isa } in
  let r = Registry.compile ~options Registry.phoenix heisenberg4 in
  List.iter
    (fun g ->
      match g with
      | Gate.Su4 _ | Gate.G1 _ -> ()
      | _ -> Alcotest.fail "non-SU4 2Q gate in SU(4) ISA output")
    (Circuit.gates r.Compiler.circuit);
  (* SU(4) count never exceeds CNOT count *)
  let r_cnot = Registry.compile Registry.phoenix heisenberg4 in
  Alcotest.(check bool) "su4 ≤ cnot" true
    (r.Compiler.two_q_count <= r_cnot.Compiler.two_q_count)

let test_compile_hardware () =
  let topo = Topology.line 4 in
  let options = { Compiler.default_options with target = Compiler.Hardware topo } in
  let r = Registry.compile ~options Registry.phoenix heisenberg4 in
  List.iter
    (fun g ->
      match Gate.pair g with
      | Some (a, b) -> Alcotest.(check bool) "adjacency" true (Topology.are_adjacent topo a b)
      | None -> ())
    (Circuit.gates r.Compiler.circuit)

let test_compile_hardware_unitary () =
  (* exact mode + routing on a line: permuted-unitary equivalence *)
  let topo = Topology.line 4 in
  let options =
    { Compiler.default_options with target = Compiler.Hardware topo; exact = true }
  in
  let r = Registry.compile ~options Registry.phoenix heisenberg4 in
  (* The routed circuit acts on 4 physical qubits; compare up to the output
     permutation by checking spectra-free metric: the routed circuit must
     implement the logical unitary up to a qubit permutation.  We verify by
     brute force over all 4! permutations. *)
  let logical =
    Unitary.program_unitary 4 (Phoenix_ham.Hamiltonian.trotter_gadgets heisenberg4)
  in
  let routed = Unitary.circuit_unitary r.Compiler.circuit in
  (* SABRE refines the input layout and relabels outputs:
     U_routed = P_out · U_logical · P_in for some qubit permutations. *)
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          List.map (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs
  in
  let dim = 16 in
  let perm_matrix perm =
    let m = Helpers.Cmat.create dim dim in
    for basis = 0 to dim - 1 do
      let image = ref 0 in
      List.iteri
        (fun l p ->
          let bit = (basis lsr (3 - l)) land 1 in
          if bit = 1 then image := !image lor (1 lsl (3 - p)))
        perm;
      Helpers.Cmat.set m !image basis Complex.one
    done;
    m
  in
  let perms = List.map perm_matrix (permutations [ 0; 1; 2; 3 ]) in
  let ok =
    List.exists
      (fun p_out ->
        let lhs = Helpers.Cmat.mul p_out logical in
        List.exists
          (fun p_in ->
            Helpers.unitary_equiv ~tol:1e-6 routed (Helpers.Cmat.mul lhs p_in))
          perms)
      perms
  in
  Alcotest.(check bool) "routed ≡ permuted logical" true ok

let test_compiler_beats_naive_on_uccsd () =
  let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
  let ham = Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding b.Phoenix_ham.Molecules.spec in
  let gadgets = Phoenix_ham.Hamiltonian.trotter_gadgets ham in
  let naive = Synthesis.naive_gadget_circuit 10 gadgets in
  let r = Registry.compile Registry.phoenix ham in
  Alcotest.(check bool) "at least 2x better" true
    (r.Compiler.two_q_count * 2 < Circuit.count_cnot naive)

let () =
  Alcotest.run "core"
    [
      ( "group",
        [
          Alcotest.test_case "by support" `Quick test_grouping_by_support;
          Alcotest.test_case "drops identity" `Quick test_grouping_drops_identity;
          Alcotest.test_case "exact order preservation" `Quick
            test_grouping_exact_order;
          Alcotest.test_case "of blocks" `Quick test_of_blocks;
          Alcotest.test_case "all commuting" `Quick test_all_commuting;
          Alcotest.test_case "words per gadget flat in the register" `Quick
            test_grouping_words_flat_in_register;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "weight-2 input" `Quick test_simplify_terminates_weight2;
          Alcotest.test_case "Fig. 1(b)" `Quick test_simplify_fig1b;
          prop_simplify_preserves_angles;
          prop_simplify_core_weight;
          prop_simplify_exact_unitary;
          prop_simplify_commuting_default_unitary;
          Alcotest.test_case "benchmark groups = reference search" `Quick
            test_simplify_matches_reference;
          Alcotest.test_case "memo scans per distinct search state" `Quick
            test_memo_scan_counts;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "rotation gates" `Quick test_rotation_gates;
          prop_naive_circuit_unitary;
          prop_naive_zfirst_unitary;
        ] );
      ( "order",
        [
          Alcotest.test_case "keeps all blocks" `Quick test_order_keeps_all_blocks;
          Alcotest.test_case "exposed cliffords" `Quick test_exposed_cliffords;
          Alcotest.test_case "rewards cancellation" `Quick
            test_assembly_cost_rewards_cancellation;
          prop_assembly_cost_matches_reference;
          prop_order_matches_reference;
          Alcotest.test_case "real blocks = reference" `Slow
            test_real_blocks_match_reference;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "logical CNOT" `Quick test_compile_logical_cnot;
          Alcotest.test_case "exact unitary" `Quick test_compile_exact_unitary;
          Alcotest.test_case "SU4 ISA" `Quick test_compile_su4;
          Alcotest.test_case "hardware adjacency" `Quick test_compile_hardware;
          Alcotest.test_case "hardware unitary" `Quick test_compile_hardware_unitary;
          Alcotest.test_case "beats naive on UCCSD" `Slow
            test_compiler_beats_naive_on_uccsd;
        ] );
    ]
