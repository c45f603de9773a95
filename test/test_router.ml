module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Cmat = Helpers.Cmat
module Unitary = Helpers.Unitary
module Topology = Phoenix_topology.Topology
module Layout = Phoenix_router.Layout
module Sabre = Phoenix_router.Sabre
module Rebase = Phoenix_circuit.Rebase

let cnot a b = Gate.Cnot (a, b)
let h q = Gate.G1 (Gate.H, q)
let rz t q = Gate.G1 (Gate.Rz t, q)

let zz a b =
  Gate.Rpp
    { p0 = Phoenix_pauli.Pauli.Z; p1 = Phoenix_pauli.Pauli.Z; a; b; theta = 0.3 }

(* --- layout --- *)

let test_layout_trivial () =
  let l = Layout.trivial ~n_logical:3 ~n_physical:5 in
  Alcotest.(check int) "physical of 2" 2 (Layout.physical_of l 2);
  Alcotest.(check (option int)) "logical of 4" None (Layout.logical_of l 4);
  Alcotest.(check (option int)) "logical of 1" (Some 1) (Layout.logical_of l 1)

let test_layout_swap () =
  let l = Layout.trivial ~n_logical:2 ~n_physical:3 in
  let l' = Layout.swap_physical l 0 2 in
  Alcotest.(check int) "moved" 2 (Layout.physical_of l' 0);
  Alcotest.(check (option int)) "vacated" None (Layout.logical_of l' 0);
  Alcotest.(check int) "untouched" 1 (Layout.physical_of l' 1);
  (* original is unchanged (immutability) *)
  Alcotest.(check int) "original" 0 (Layout.physical_of l 0)

let test_layout_injective () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Layout.of_l2p: not injective")
    (fun () -> ignore (Layout.of_l2p ~n_physical:3 [| 1; 1 |]))

(* --- routing: respects topology --- *)

let respects_topology topo circ =
  List.for_all
    (fun g ->
      match Gate.pair g with
      | Some (a, b) -> Topology.are_adjacent topo a b
      | None -> true)
    (Circuit.gates circ)

let test_route_line () =
  let topo = Topology.line 4 in
  let circ = Circuit.create 4 [ cnot 0 3; cnot 1 2 ] in
  let r = Sabre.route topo circ in
  Alcotest.(check bool) "respects topology" true (respects_topology topo r.Sabre.circuit);
  Alcotest.(check bool) "needs swaps" true (r.Sabre.num_swaps > 0);
  Alcotest.(check int) "2q conserved" (2 + r.Sabre.num_swaps)
    (Circuit.count_2q r.Sabre.circuit)

let test_route_adjacent_needs_no_swap () =
  let topo = Topology.line 3 in
  let circ = Circuit.create 3 [ cnot 0 1; cnot 1 2; h 0; rz 0.4 2 ] in
  let r = Sabre.route topo circ in
  Alcotest.(check int) "no swaps" 0 r.Sabre.num_swaps;
  Alcotest.(check int) "gates preserved" 4 (Circuit.length r.Sabre.circuit)

(* permutation matrix of a full layout (n_logical = n_physical): maps the
   logical basis into the physical basis *)
let perm_matrix n layout =
  let dim = 1 lsl n in
  let m = Cmat.create dim dim in
  for logical = 0 to dim - 1 do
    let physical = ref 0 in
    for l = 0 to n - 1 do
      let bit = (logical lsr (n - 1 - l)) land 1 in
      if bit = 1 then begin
        let p = Layout.physical_of layout l in
        physical := !physical lor (1 lsl (n - 1 - p))
      end
    done;
    Cmat.set m !physical logical Complex.one
  done;
  m

let routed_equivalent topo circ =
  let r = Sabre.route topo circ in
  let n = Circuit.num_qubits circ in
  let u_logical = Unitary.circuit_unitary circ in
  let u_routed = Unitary.circuit_unitary (Phoenix_circuit.Lowering.(run [ Rebase ]) r.Sabre.circuit) in
  (* U_routed · M_init = M_final · U_logical *)
  let lhs = Cmat.mul u_routed (perm_matrix n r.Sabre.initial_layout) in
  let rhs = Cmat.mul (perm_matrix n r.Sabre.final_layout) u_logical in
  respects_topology topo r.Sabre.circuit && Helpers.unitary_equiv ~tol:1e-7 lhs rhs

let random_circuit_gen n =
  let open QCheck2.Gen in
  let pairs =
    map
      (fun (a, d) ->
        let b = (a + 1 + d) mod n in
        a, b)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)))
  in
  list_size (int_range 0 20)
    (oneof
       [
         map (fun (a, b) -> cnot a b) pairs;
         map (fun q -> h q) (int_range 0 (n - 1));
         map (fun (q, t) -> rz t q) (pair (int_range 0 (n - 1)) Helpers.angle_gen);
       ])

let prop_route_preserves_unitary_line =
  Helpers.qtest ~count:60 "routing on a line preserves the permuted unitary"
    (random_circuit_gen 4)
    (fun gates -> routed_equivalent (Topology.line 4) (Circuit.create 4 gates))

let prop_route_preserves_unitary_ring =
  Helpers.qtest ~count:40 "routing on a ring preserves the permuted unitary"
    (random_circuit_gen 4)
    (fun gates -> routed_equivalent (Topology.ring 4) (Circuit.create 4 gates))

let prop_route_respects_topology_heavy_hex =
  Helpers.qtest ~count:20 "routing respects heavy-hex adjacency"
    (random_circuit_gen 8)
    (fun gates ->
      let topo = Topology.heavy_hex ~widths:[ 5; 5 ] in
      let circ = Circuit.create 8 gates in
      let r = Sabre.route topo circ in
      respects_topology topo r.Sabre.circuit)

let test_refinement_not_worse_much () =
  (* refinement should yield a valid routing too *)
  let topo = Topology.line 5 in
  let gates = [ cnot 0 4; cnot 1 3; cnot 0 2; cnot 2 4; cnot 1 4 ] in
  let circ = Circuit.create 5 gates in
  let r = Sabre.route_with_refinement ~iterations:2 topo circ in
  Alcotest.(check bool) "valid" true (respects_topology topo r.Sabre.circuit)

(* --- devices the routers refuse ---------------------------------------- *)

(* Two components, one ZZ interaction across them: no SWAP sequence can
   ever make it executable, so every router must refuse up front instead
   of searching forever. *)
let split_device = Topology.make 4 [ (0, 1); (2, 3) ]

let disconnected name =
  Invalid_argument
    (name
   ^ ": the 4-qubit coupling graph is disconnected — routing cannot reach \
      every qubit")

(* Each router checks the device before it places the circuit, and names
   itself. *)
let test_device_too_small () =
  let line2 = Topology.line 2 and circ = Circuit.create 3 [ cnot 0 2 ] in
  let too_small name =
    Invalid_argument
      (name ^ ": circuit needs 3 logical qubits but the device has only 2")
  in
  Alcotest.check_raises "route" (too_small "Sabre.route") (fun () ->
      ignore (Sabre.route line2 circ));
  Alcotest.check_raises "refinement"
    (too_small "Sabre.route_with_refinement") (fun () ->
      ignore (Sabre.route_with_refinement line2 circ));
  Alcotest.check_raises "commuting" (too_small "Sabre.route_commuting")
    (fun () -> ignore (Sabre.route_commuting line2 circ));
  Alcotest.check_raises "refinement on a split device"
    (disconnected "Sabre.route_with_refinement") (fun () ->
      ignore
        (Sabre.route_with_refinement split_device (Circuit.create 4 [ zz 0 2 ])))

let test_commuting_disconnected () =
  Alcotest.check_raises "commuting router"
    (disconnected "Sabre.route_commuting")
    (fun () ->
      ignore (Sabre.route_commuting split_device (Circuit.create 4 [ zz 0 2 ])))

let test_qan2_disconnected () =
  let options =
    {
      Phoenix.Compiler.default_options with
      target = Phoenix.Compiler.Hardware split_device;
    }
  in
  Alcotest.check_raises "2QAN router" (disconnected "Qan2_like.route")
    (fun () ->
      ignore
        (Phoenix_pipeline.Registry.compile_gadgets ~options
           Phoenix_pipeline.Registry.qan2 4
           [ (Phoenix_pauli.Pauli_string.of_string "ZIZI", 0.3) ]))

(* --- differentials against the list-based reference router ------------ *)

module Reference = Sabre_reference

let same (r : Sabre.result) (x : Reference.result) =
  r.Sabre.num_swaps = x.Reference.num_swaps
  && Layout.equal r.Sabre.initial_layout x.Reference.initial_layout
  && Layout.equal r.Sabre.final_layout x.Reference.final_layout
  && Circuit.num_qubits r.Sabre.circuit = Circuit.num_qubits x.Reference.circuit
  && List.equal Gate.equal
       (Circuit.gates r.Sabre.circuit)
       (Circuit.gates x.Reference.circuit)

let devices =
  lazy
    [|
      Topology.line 6;
      Topology.ring 7;
      Topology.grid ~rows:3 ~cols:3;
      Topology.heavy_hex ~widths:[ 5; 5; 5 ];
      Topology.ibm_manhattan ();
    |]

(* A random instance: a device, a register, gates of every routed kind
   (1Q, CNOT, Rpp, Cliff2), a router seed, a lookahead in 1–25 and a
   seed for a random initial layout. *)
type instance = {
  device : int;
  gates : Gate.t list;
  n_log : int;
  seed : int;
  lookahead : int;
  layout_seed : int;
}

(* [device] draws the device index; [register n_phys] the register size;
   [length] the gate count. *)
let instance_of ~device ~register ~length =
  let open QCheck2.Gen in
  let* device = device in
  let n_phys = Topology.num_qubits (Lazy.force devices).(device) in
  let* n_log = register n_phys in
  let qubit_pair =
    let* a = int_range 0 (n_log - 1) in
    let* d = int_range 1 (n_log - 1) in
    return (a, (a + d) mod n_log)
  in
  let pauli = oneofl Phoenix_pauli.Pauli.[ X; Y; Z ] in
  let gate =
    oneof
      [
        map (fun q -> h q) (int_range 0 (n_log - 1));
        map2 (fun q t -> rz t q) (int_range 0 (n_log - 1)) Helpers.angle_gen;
        map (fun (a, b) -> cnot a b) qubit_pair;
        map
          (fun ((a, b), (p0, p1), theta) -> Gate.Rpp { p0; p1; a; b; theta })
          (triple qubit_pair (pair pauli pauli) Helpers.angle_gen);
        map (fun c -> Gate.Cliff2 c) (Helpers.clifford2q_gen n_log);
      ]
  in
  let* gates = list_size length gate in
  let* seed = int_range 0 10_000 in
  let* lookahead = int_range 1 25 in
  let* layout_seed = int_range 0 10_000 in
  return { device; gates; n_log; seed; lookahead; layout_seed }

(* Every device, a register of [2 .. min 12 n_phys] qubits, up to 40
   gates. *)
let instance_gen =
  QCheck2.Gen.(
    instance_of ~device:(int_range 0 4)
      ~register:(fun n_phys -> int_range 2 (min 12 n_phys))
      ~length:(int_range 0 40))

(* Long circuits on heavy-hex [5;5;5] and Manhattan: 150–400 gates on at
   least half the device.  They run long stretches of SWAPs that emit
   nothing, where SABRE carries its scores from step to step, and many
   reach a decay reset (every 5·n_phys SWAPs). *)
let long_instance_gen =
  QCheck2.Gen.(
    instance_of ~device:(int_range 3 4)
      ~register:(fun n_phys -> int_range (n_phys / 2) n_phys)
      ~length:(int_range 150 400))

let print_instance i =
  Printf.sprintf "device %d, %d qubits, seed %d, lookahead %d, layout %d:\n%s"
    i.device i.n_log i.seed i.lookahead i.layout_seed
    (String.concat "; " (List.map Gate.to_string i.gates))

(* [n_log] logical qubits on distinct sites drawn from [seed] *)
let random_layout ~seed ~n_log topo =
  let n_phys = Topology.num_qubits topo in
  let sites = Array.init n_phys Fun.id in
  Phoenix_util.Prng.shuffle (Phoenix_util.Prng.create seed) sites;
  Layout.of_l2p ~n_physical:n_phys (Array.sub sites 0 n_log)

let differential ?(gen = instance_gen) ~count name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_instance gen (fun i ->
         let topo = (Lazy.force devices).(i.device) in
         f i topo (Circuit.create i.n_log i.gates)))

let prop_route_matches_reference =
  differential ~count:750 "route = reference (trivial and random layouts)"
    (fun i topo circ ->
      let seed = i.seed and lookahead = i.lookahead in
      same (Sabre.route ~seed ~lookahead topo circ)
        (Reference.route ~seed ~lookahead topo circ)
      &&
      let initial = random_layout ~seed:i.layout_seed ~n_log:i.n_log topo in
      same
        (Sabre.route ~initial ~seed ~lookahead topo circ)
        (Reference.route ~initial ~seed ~lookahead topo circ))

let prop_refinement_matches_reference =
  differential ~count:300 "route_with_refinement = reference (0–2 rounds)"
    (fun i topo circ ->
      let iterations = i.seed mod 3 in
      let seed = i.seed and lookahead = i.lookahead in
      same
        (Sabre.route_with_refinement ~iterations ~seed ~lookahead topo circ)
        (Reference.route_with_refinement ~iterations ~seed ~lookahead topo
           circ))

(* The long-circuit instances whose forward route reached a decay
   reset, out of all of them *)
let long_resets = ref 0 and long_total = ref 0

let count_reset topo (r : Sabre.result) =
  incr long_total;
  if r.Sabre.num_swaps >= 5 * Topology.num_qubits topo then incr long_resets

let prop_long_route_matches_reference =
  differential ~gen:long_instance_gen ~count:30
    "route = reference on long circuits (random layouts)"
    (fun i topo circ ->
      let seed = i.seed and lookahead = i.lookahead in
      let initial = random_layout ~seed:i.layout_seed ~n_log:i.n_log topo in
      let r = Sabre.route ~initial ~seed ~lookahead topo circ in
      count_reset topo r;
      same r (Reference.route ~initial ~seed ~lookahead topo circ))

let prop_long_refinement_matches_reference =
  differential ~gen:long_instance_gen ~count:30
    "route_with_refinement = reference on long circuits (0–2 rounds)"
    (fun i topo circ ->
      let iterations = i.seed mod 3 in
      let seed = i.seed and lookahead = i.lookahead in
      let r = Sabre.route_with_refinement ~iterations ~seed ~lookahead topo circ in
      count_reset topo r;
      same r
        (Reference.route_with_refinement ~iterations ~seed ~lookahead topo
           circ))

let test_report_long_resets () =
  if !long_total > 0 then
    Printf.printf
      "long circuits with a decay reset (SWAPs >= 5·n_phys): %d of %d\n%!"
      !long_resets !long_total

(* Both commuting routers checkpoint once per step.  The list router can
   cycle forever between its fallback step and the greedy step that
   undoes it; the array router breaks such a cycle after 2·n_phys SWAPs
   without an emitted gate, which no terminating run of the list router
   reaches.  So the reference runs under a step budget: where it
   finishes, the two must agree; where it does not, the array router
   must still finish with a valid routing. *)
let commuting_agrees ?initial topo circ =
  let steps = Phoenix_util.Budget.after_checks 5_000 in
  let r = Sabre.route_commuting ?initial topo circ in
  match
    Phoenix_util.Budget.with_ambient steps (fun () ->
        Reference.route_commuting ?initial topo circ)
  with
  | x -> same r x
  | exception Phoenix_util.Budget.Interrupted _ ->
    respects_topology topo r.Sabre.circuit
    && Circuit.count_2q r.Sabre.circuit
       = Circuit.count_2q circ + r.Sabre.num_swaps

let prop_commuting_matches_reference =
  differential ~count:400 "route_commuting = reference (placed, random)"
    (fun i topo circ ->
      commuting_agrees topo circ
      &&
      let initial = random_layout ~seed:i.layout_seed ~n_log:i.n_log topo in
      commuting_agrees ~initial topo circ)

(* A Manhattan instance, found by the differential above, on which the
   list router cycles: the array router must finish it. *)
let test_commuting_cycle_ends () =
  let topo = Topology.ibm_manhattan () in
  let pairs =
    [ (0, 1); (8, 11); (0, 1); (0, 1); (0, 1); (5, 2); (0, 3); (8, 7);
      (0, 1); (0, 7); (8, 0); (2, 3); (0, 9); (11, 3) ]
  in
  let circ = Circuit.create 12 (List.map (fun (a, b) -> cnot a b) pairs) in
  let initial = random_layout ~seed:5910 ~n_log:12 topo in
  let steps = Phoenix_util.Budget.after_checks 5_000 in
  Alcotest.(check bool) "the reference cycles" true
    (match
       Phoenix_util.Budget.with_ambient steps (fun () ->
           Reference.route_commuting ~initial topo circ)
     with
    | _ -> false
    | exception Phoenix_util.Budget.Interrupted _ -> true);
  let r = Sabre.route_commuting ~initial topo circ in
  Alcotest.(check bool) "respects topology" true
    (respects_topology topo r.Sabre.circuit);
  Alcotest.(check int) "every gate routed"
    (List.length pairs + r.Sabre.num_swaps)
    (Circuit.count_2q r.Sabre.circuit)

(* The route-pass inputs of the benchmark's hw-route programs, captured
   with a pass hook, routed the way the route pass routes them (the
   commuting multistart and SABRE refinement) by both routers. *)
let hw_route_programs =
  [ "uccsd:LiH_frz_JW"; "uccsd:LiH_frz_BK"; "uccsd:NH_frz_JW";
    "uccsd:H2O_frz_BK"; "qaoa:Rand-16"; "qaoa:Rand-24"; "qaoa:Reg3-24" ]

let test_hw_route_inputs_match_reference () =
  let topo = Topology.ibm_manhattan () in
  let options =
    {
      Phoenix.Compiler.default_options with
      target = Phoenix.Compiler.Hardware topo;
      domains = 1;
      cache = Phoenix_cache.Cache.Off;
    }
  in
  let entry = Phoenix_pipeline.Registry.phoenix in
  List.iter
    (fun spec ->
      let h =
        match Phoenix_serve.Workload.of_spec spec with
        | Ok h -> h
        | Error msg -> Alcotest.failf "%s: %s" spec msg
      in
      let captured = ref None in
      let hook ~pass ~before ~after:_ ~seconds:_ =
        if pass.Phoenix.Pass.name = "route" then
          captured := Some before.Phoenix.Pass.circuit
      in
      ignore
        (Phoenix_pipeline.Registry.compile ~options ~hooks:[ hook ] entry h);
      let circ =
        match !captured with
        | Some c -> c
        | None -> Alcotest.failf "%s: no route pass" spec
      in
      let check what r x =
        if not (same r x) then
          Alcotest.failf "%s: %s differs from the reference" spec what
      in
      check "refinement"
        (Sabre.route_with_refinement ~iterations:options.sabre_iterations
           ~lookahead:20 ~seed:options.seed topo circ)
        (Reference.route_with_refinement ~iterations:options.sabre_iterations
           ~lookahead:20 ~seed:options.seed topo circ);
      List.iter
        (fun seed_site ->
          let initial =
            Phoenix_router.Placement.of_circuit ~seed_site topo circ
          in
          check
            (Printf.sprintf "commuting routing from seed site %d" seed_site)
            (Sabre.route_commuting ~initial topo circ)
            (Reference.route_commuting ~initial topo circ))
        [ 0; 11; 23; 37; 53 ])
    hw_route_programs

(* --- the exact minimum-SWAP oracle ------------------------------------ *)

let oracle_devices =
  lazy
    [|
      Topology.line 4;
      Topology.ring 5;
      Topology.grid ~rows:2 ~cols:2;
      Topology.make 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] (* star *);
    |]

(* A small instance: an oracle device, a register of 2 .. n_phys
   qubits, up to 8 CNOTs and 4 Hadamards in random order, a router seed
   and a seed for the initial layout. *)
type small = {
  dev : int;
  n : int;
  ops : Gate.t list;
  router_seed : int;
  layout_seed : int;
}

let small_gen =
  let open QCheck2.Gen in
  let* dev = int_range 0 3 in
  let n_phys = Topology.num_qubits (Lazy.force oracle_devices).(dev) in
  let* n = int_range 2 n_phys in
  let qubit_pair =
    let* a = int_range 0 (n - 1) in
    let* d = int_range 1 (n - 1) in
    return (a, (a + d) mod n)
  in
  let* twos = list_size (int_range 0 8) (map (fun (a, b) -> cnot a b) qubit_pair) in
  let* ones = list_size (int_range 0 4) (map h (int_range 0 (n - 1))) in
  let* ops = shuffle_l (twos @ ones) in
  let* router_seed = int_range 0 10_000 in
  let* layout_seed = int_range 0 10_000 in
  return { dev; n; ops; router_seed; layout_seed }

let print_small s =
  Printf.sprintf "device %d, %d qubits, seed %d, layout %d: %s" s.dev s.n
    s.router_seed s.layout_seed
    (String.concat "; " (List.map Gate.to_string s.ops))

(* SABRE's SWAP count and the optimum, from the same random layout *)
let against_oracle s =
  let topo = (Lazy.force oracle_devices).(s.dev) in
  let initial = random_layout ~seed:s.layout_seed ~n_log:s.n topo in
  let circ = Circuit.create s.n s.ops in
  let sabre = Sabre.route ~initial ~seed:s.router_seed topo circ in
  (topo, initial, sabre.Sabre.num_swaps, Exact_router.min_swaps topo ~initial circ)

let gaps = ref []

let prop_sabre_never_beats_the_optimum =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~print:print_small
       ~name:"SABRE ≥ the exact optimum, and 0 exactly when it is 0" small_gen
       (fun s ->
         let _, _, sabre, opt = against_oracle s in
         gaps := float_of_int (sabre - opt) :: !gaps;
         sabre >= opt && (sabre = 0) = (opt = 0)))

let test_report_gap () =
  let n = List.length !gaps in
  if n > 0 then
    Printf.printf "mean SABRE − optimum SWAP gap: %.3f over %d instances\n%!"
      (List.fold_left ( +. ) 0.0 !gaps /. float_of_int n)
      n

let prop_single_gate_costs_distance_minus_one =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~print:print_small
       ~name:"one 2Q gate at distance d costs both routers d − 1" small_gen
       (fun s ->
         match List.filter Gate.is_two_qubit s.ops with
         | [] -> true
         | g :: _ ->
           let topo, initial, sabre, opt = against_oracle { s with ops = [ g ] } in
           let a, b = Option.get (Gate.pair g) in
           let d =
             Topology.distance topo (Layout.physical_of initial a)
               (Layout.physical_of initial b)
           in
           sabre = d - 1 && opt = d - 1))

let () =
  Alcotest.run "router"
    [
      ( "layout",
        [
          Alcotest.test_case "trivial" `Quick test_layout_trivial;
          Alcotest.test_case "swap" `Quick test_layout_swap;
          Alcotest.test_case "injective" `Quick test_layout_injective;
        ] );
      ( "sabre",
        [
          Alcotest.test_case "line routing" `Quick test_route_line;
          Alcotest.test_case "adjacent no swaps" `Quick
            test_route_adjacent_needs_no_swap;
          Alcotest.test_case "refinement valid" `Quick test_refinement_not_worse_much;
          Alcotest.test_case "device too small" `Quick test_device_too_small;
          Alcotest.test_case "commuting router refuses a disconnected device"
            `Quick test_commuting_disconnected;
          Alcotest.test_case "2QAN router refuses a disconnected device" `Quick
            test_qan2_disconnected;
        ] );
      ( "props",
        [
          prop_route_preserves_unitary_line;
          prop_route_preserves_unitary_ring;
          prop_route_respects_topology_heavy_hex;
        ] );
      ( "ref",
        [
          prop_route_matches_reference;
          prop_refinement_matches_reference;
          prop_commuting_matches_reference;
          prop_long_route_matches_reference;
          prop_long_refinement_matches_reference;
          Alcotest.test_case "long circuits reaching a decay reset (reported)"
            `Quick test_report_long_resets;
          Alcotest.test_case "hw-route route-pass inputs" `Slow
            test_hw_route_inputs_match_reference;
          Alcotest.test_case "commuting cycle ends" `Quick
            test_commuting_cycle_ends;
        ] );
      ( "exact",
        [
          prop_sabre_never_beats_the_optimum;
          prop_single_gate_costs_distance_minus_one;
          Alcotest.test_case "mean optimality gap (reported, not gated)" `Quick
            test_report_gap;
        ] );
    ]
