(* The lowering engine against the list reference (lowering_reference.ml):
   equal gate lists, equal angle bits, and the same symbolic slots
   allocated in the same order, on random circuits of every gate kind
   and on the circuits every benchmark program hands to the peephole,
   lower and route passes. *)

module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Pauli = Helpers.Pauli
module Clifford2q = Helpers.Clifford2q
module Angle = Phoenix_pauli.Angle
module Lowering = Phoenix_circuit.Lowering
module Pass = Phoenix.Pass
module Compiler = Phoenix.Compiler
module Passes = Phoenix.Passes
module Registry = Phoenix_pipeline.Registry
module Topology = Phoenix_topology.Topology
module Sabre = Phoenix_router.Sabre
module Placement = Phoenix_router.Placement
module Ref = Lowering_reference

let reference stages c =
  List.fold_left
    (fun c stage ->
      match stage with
      | Lowering.Peephole -> Ref.Peephole.optimize c
      | Lowering.Rebase -> Ref.Rebase.to_cnot_basis c
      | Lowering.Fold -> Ref.Phase_folding.fold c)
    c stages

(* An angle as bits: a slot allocated during the run is named by its
   offset from the arena size at the start of the run, so two runs that
   record the same expressions in the same order agree. *)
let angle_key base t =
  match Angle.view t with
  | Angle.Const c -> Printf.sprintf "%Lx" (Int64.bits_of_float c)
  | Angle.Slot { id; negated } ->
    Printf.sprintf "%s%s:%s"
      (if negated then "-" else "")
      (if id >= base then Printf.sprintf "new%d" (id - base)
       else Printf.sprintf "old%d" id)
      (Angle.describe t)

let keyed base c =
  let keys g =
    List.rev (Gate.fold_angles (fun acc t -> angle_key base t :: acc) [] g)
  in
  List.map (fun g -> g, keys g) (Circuit.gates c)

let outcome f c =
  let base = Angle.arena_size () in
  match f c with
  | c' -> Ok (Circuit.num_qubits c', keyed base c')
  | exception Invalid_argument msg -> Error msg

let same_outcome a b =
  match a, b with
  | Ok (n, gs), Ok (m, hs) ->
    n = m
    && List.length gs = List.length hs
    && List.for_all2 (fun (g, k) (h, l) -> Gate.equal g h && k = l) gs hs
  | Error x, Error y -> x = y
  | Ok _, Error _ | Error _, Ok _ -> false

let agrees stages c =
  same_outcome (outcome (reference stages) c) (outcome (Lowering.run stages) c)

let counts_agree stages c =
  match reference stages c with
  | r ->
    Lowering.count_2q stages c = Circuit.count_2q r
    && Lowering.count_cnot stages c = Circuit.count_cnot r
  | exception Invalid_argument _ -> true

let stage_name = function
  | Lowering.Peephole -> "Peephole"
  | Lowering.Rebase -> "Rebase"
  | Lowering.Fold -> "Fold"

let print_case (stages, c) =
  Format.asprintf "[%s]@.%a"
    (String.concat "; " (List.map stage_name stages))
    Circuit.pp c

(* --- random circuits ------------------------------------------------- *)

let pi = 4.0 *. Float.atan 1.0

(* Generic angles, exact zeros and multiples of 2π (dropped or kept by
   the zero test), and symbolic slots, negated or not. *)
let angle_gen =
  let open QCheck2.Gen in
  frequency
    [
      (6, float_range (-3.5) 3.5);
      (1, oneofl [ 0.0; -0.0; 2.0 *. pi; 4.0 *. pi; pi; -.pi ]);
      ( 2,
        map
          (fun (index, negate) ->
            let s = Angle.param ~index ~scale:0.5 in
            if negate then Angle.neg s else s)
          (pair (int_range 0 3) bool) );
    ]

let one_q_gen =
  let open QCheck2.Gen in
  oneof
    [
      oneofl Gate.[ H; S; Sdg; X; Y; Z; T; Tdg ];
      map (fun t -> Gate.Rx t) angle_gen;
      map (fun t -> Gate.Ry t) angle_gen;
      map (fun t -> Gate.Rz t) angle_gen;
    ]

(* Gates on the ordered pair (a, b). *)
let two_q_gen a b =
  let open QCheck2.Gen in
  let nontrivial = oneofl [ Pauli.X; Pauli.Y; Pauli.Z ] in
  frequency
    [
      (4, return (Gate.Cnot (a, b)));
      (2, return (Gate.Swap (a, b)));
      ( 2,
        map
          (fun k -> Gate.Cliff2 (Clifford2q.make k a b))
          (oneofl Clifford2q.all_kinds) );
      ( 2,
        map
          (fun ((p0, p1), theta) -> Gate.Rpp { p0; p1; a; b; theta })
          (pair (pair nontrivial nontrivial) angle_gen) );
    ]

let pair_gen n =
  let open QCheck2.Gen in
  map
    (fun (a, d) -> a, (a + 1 + d) mod n)
    (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)))

let su4_gen a b =
  let open QCheck2.Gen in
  let part =
    frequency
      [
        ( 3,
          map (fun (k, q) -> Gate.G1 (k, q)) (pair one_q_gen (oneofl [ a; b ]))
        );
        ( 2,
          bind bool (fun flip -> if flip then two_q_gen b a else two_q_gen a b)
        );
      ]
  in
  map
    (fun parts -> Gate.Su4 { a = min a b; b = max a b; parts })
    (list_size (int_range 1 6) part)

let gate_gen n =
  let open QCheck2.Gen in
  frequency
    [
      ( 6,
        map
          (fun (k, q) -> Gate.G1 (k, q))
          (pair one_q_gen (int_range 0 (n - 1))) );
      (5, bind (pair_gen n) (fun (a, b) -> two_q_gen a b));
      (1, bind (pair_gen n) (fun (a, b) -> su4_gen a b));
    ]

(* Random circuits; a third are mirrored (followed by their inverse) so
   that cancellations and merges reach across long stretches. *)
let circuit_gen =
  let open QCheck2.Gen in
  bind (int_range 2 6) (fun n ->
      map
        (fun (gates, mirror) ->
          let gates =
            if mirror then gates @ List.rev_map Gate.dagger gates else gates
          in
          Circuit.create n gates)
        (pair
           (list_size (int_range 0 30) (gate_gen n))
           (frequencyl [ (2, false); (1, true) ])))

let stages_gen =
  QCheck2.Gen.(
    list_size (int_range 1 4) (oneofl Lowering.[ Peephole; Rebase; Fold ]))

let pipelines =
  Lowering.
    [
      [ Peephole ];
      [ Rebase ];
      [ Fold ];
      [ Peephole; Rebase; Fold; Peephole ];
      [ Rebase; Peephole ];
      [ Peephole; Fold ];
    ]

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_case gen prop)

let prop_pipelines =
  qtest ~count:400 "engine = reference on the back ends' stage lists"
    QCheck2.Gen.(pair (oneofl pipelines) circuit_gen)
    (fun (stages, c) -> agrees stages c)

let prop_any_stages =
  qtest ~count:300 "engine = reference on any stage sequence"
    QCheck2.Gen.(pair stages_gen circuit_gen)
    (fun (stages, c) -> agrees stages c)

let prop_counts =
  qtest ~count:300 "buffer counts = counts of the reference circuit"
    QCheck2.Gen.(pair stages_gen circuit_gen)
    (fun (stages, c) -> counts_agree stages c)

let test_identity_rpp_raises () =
  let c =
    Circuit.create 2
      [ Gate.Rpp { p0 = Pauli.X; p1 = Pauli.I; a = 0; b = 1; theta = 0.3 } ]
  in
  Alcotest.check_raises "rebase"
    (Invalid_argument "Rebase.to_z_basis: identity") (fun () ->
      ignore (Lowering.run [ Lowering.Rebase ] c));
  Alcotest.(check bool) "peephole keeps it" true
    (agrees [ Lowering.Peephole ] c)

let test_degenerate_pair () =
  (* A CNOT or SWAP on one qubit (QASM does not forbid it) links its
     qubit once; the scans must still terminate and agree. *)
  let c =
    Circuit.create 2
      [
        Gate.Cnot (0, 0); Gate.G1 (Gate.Rz 0.2, 0); Gate.Cnot (0, 0);
        Gate.Swap (1, 1); Gate.Swap (1, 1); Gate.G1 (Gate.H, 0);
        Gate.G1 (Gate.H, 0);
      ]
  in
  List.iter
    (fun stages ->
      Alcotest.(check bool) (print_case (stages, c)) true (agrees stages c))
    pipelines

(* --- the benchmark's programs ------------------------------------------ *)

let logical_specs =
  [
    "uccsd:LiH_frz_JW"; "uccsd:NH_frz_BK"; "uccsd:LiH_cmplt_JW";
    "uccsd:H2O_frz_JW"; "uccsd:CH2_frz_BK"; "uccsd:CH2_cmplt_BK";
    "qaoa:Reg3-250"; "qaoa:Reg3-500"; "fermi-hubbard:5x5"; "tfim:200";
    "heisenberg:100"; "heisenberg:16"; "tfim:24";
  ]

let heavy_hex_specs =
  [
    "uccsd:LiH_frz_JW"; "uccsd:LiH_frz_BK"; "uccsd:NH_frz_JW";
    "uccsd:H2O_frz_BK"; "qaoa:Rand-16"; "qaoa:Rand-24"; "qaoa:Reg3-24";
    "qaoa:Reg3-16"; "qaoa:Reg3-20";
  ]

let template_specs = [ "uccsd:LiH_frz_JW"; "uccsd:H2O_frz_BK" ]

let workload spec =
  match Phoenix_serve.Workload.of_spec spec with
  | Ok h -> h
  | Error msg -> Alcotest.failf "%s: %s" spec msg

let z_diagonal = function
  | Gate.G1 ((Gate.Rz _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg), _)
  | Gate.Rpp { p0 = Pauli.Z; p1 = Pauli.Z; _ } ->
    true
  | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _
  | Gate.Su4 _ ->
    false

(* The inputs of the peephole, lower and route passes, and the output
   of both routers on the route input. *)
let captured ~template target spec =
  let inputs = ref [] in
  let hook ~(pass : Pass.t) ~(before : Pass.ctx) ~after:_ ~seconds:_ =
    match pass.Pass.name with
    | "peephole" | "lower" ->
      inputs := (pass.Pass.name, before.Pass.circuit) :: !inputs
    | "route" ->
      let abstract = before.Pass.circuit in
      let options = before.Pass.options in
      let topo =
        match options.Pass.target with
        | Pass.Hardware t -> t
        | Pass.Logical -> assert false
      in
      let sabre =
        Sabre.route_with_refinement ~iterations:options.Pass.sabre_iterations
          ~lookahead:20 ~seed:options.Pass.seed topo abstract
      in
      inputs :=
        ("route", abstract) :: ("sabre", sabre.Sabre.circuit) :: !inputs;
      if List.for_all z_diagonal (Circuit.gates abstract) then begin
        let initial = Placement.of_circuit ~seed_site:0 topo abstract in
        let r = Sabre.route_commuting ~initial topo abstract in
        inputs := ("commuting", r.Sabre.circuit) :: !inputs
      end
    | _ -> ()
  in
  let options =
    { Compiler.default_options with Compiler.target; domains = 1 }
  in
  let entry = Registry.phoenix in
  let h = workload spec in
  (if template then
     match Registry.compile_template ~options ~hooks:[ hook ] entry h with
     | Ok _ -> ()
     | Error msg -> Alcotest.failf "%s: %s" spec msg
   else ignore (Registry.compile ~options ~hooks:[ hook ] entry h));
  List.rev !inputs

let program_stage_lists =
  Lowering.
    [
      Passes.cnot_lowering { Compiler.default_options with peephole = true };
      Passes.cnot_lowering { Compiler.default_options with peephole = false };
      [ Peephole ];
      [ Rebase; Peephole ];
    ]

let check_programs ~template target specs () =
  List.iter
    (fun spec ->
      List.iter
        (fun (boundary, c) ->
          List.iter
            (fun stages ->
              let where =
                Printf.sprintf "%s (%s input, %d gates), [%s]" spec boundary
                  (Circuit.length c)
                  (String.concat "; " (List.map stage_name stages))
              in
              if not (agrees stages c) then
                Alcotest.failf "%s: engine differs" where;
              if not (counts_agree stages c) then
                Alcotest.failf "%s: counts differ" where)
            program_stage_lists)
        (captured ~template target spec))
    specs

let heavy_hex () = Compiler.Hardware (Topology.ibm_manhattan ())

let () =
  Alcotest.run "lowering"
    [
      ( "differential",
        [
          prop_pipelines;
          prop_any_stages;
          prop_counts;
          Alcotest.test_case "identity Rpp" `Quick test_identity_rpp_raises;
          Alcotest.test_case "one-qubit pairs" `Quick test_degenerate_pair;
        ] );
      ( "programs",
        [
          Alcotest.test_case "logical programs" `Slow
            (check_programs ~template:false Compiler.Logical logical_specs);
          Alcotest.test_case "heavy-hex programs" `Slow (fun () ->
              check_programs ~template:false (heavy_hex ()) heavy_hex_specs ());
          Alcotest.test_case "templates" `Slow (fun () ->
              check_programs ~template:true Compiler.Logical template_specs ();
              check_programs ~template:true (heavy_hex ()) template_specs ());
        ] );
    ]
