module Circuit = Phoenix_circuit.Circuit
module Lowering = Phoenix_circuit.Lowering
module Pass = Phoenix.Pass
module Synthesis = Phoenix.Synthesis
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Sabre = Phoenix_router.Sabre

type variant =
  | Full
  | No_ordering
  | No_lookahead
  | No_compression
  | No_peephole
  | Exact

let variant_name = function
  | Full -> "full pipeline"
  | No_ordering -> "no IR-group ordering"
  | No_lookahead -> "ordering lookahead = 1"
  | No_compression -> "no core compression"
  | No_peephole -> "no peephole (O3)"
  | Exact -> "exact mode"

let all_variants =
  [ Full; No_ordering; No_lookahead; No_compression; No_peephole; Exact ]

(* The PHOENIX pipeline ([Compiler.passes]) with one component switched
   off; [Full] is exactly what the registry's phoenix entry runs. *)
let compile_variant variant n blocks =
  let d = Compiler.default_options in
  let options =
    match variant with
    | Exact -> { d with exact = true }
    | No_peephole -> { d with peephole = false }
    | No_lookahead -> { d with lookahead = 1 }
    | Full | No_ordering | No_compression -> d
  in
  let synthesize =
    match variant with
    | No_compression ->
      Some (fun g -> Synthesis.group_circuit ~compress:false g)
    | Full | No_ordering | No_lookahead | No_peephole | Exact -> None
  in
  let passes = Compiler.passes ?synthesize options in
  let passes =
    if variant = No_ordering then
      List.filter (fun (p : Pass.t) -> p.Pass.name <> "order") passes
    else passes
  in
  (Compiler.run_passes passes
     (Pass.init ~gadgets:(List.concat blocks) ~term_blocks:blocks options n))
    .Compiler.circuit

let run_uccsd ?labels () =
  let cases = Workloads.uccsd_suite ?labels () in
  List.map
    (fun variant ->
      let cnots, depths =
        List.fold_left
          (fun (cs, ds) (case : Workloads.uccsd_case) ->
            let original =
              (Registry.compile_gadgets Registry.naive case.Workloads.n
                 (Workloads.gadgets case))
                .Compiler.circuit
            in
            let c =
              compile_variant variant case.Workloads.n case.Workloads.gadget_blocks
            in
            ( Metrics.ratio (Circuit.count_2q c) (Circuit.count_2q original) :: cs,
              Metrics.ratio (Circuit.depth_2q c) (Circuit.depth_2q original) :: ds
            ))
          ([], []) cases
      in
      variant, (Metrics.geomean cnots, Metrics.geomean depths))
    all_variants

let run_qaoa_router () =
  let topo = Workloads.heavy_hex () in
  List.map
    (fun (case : Workloads.qaoa_case) ->
      let options =
        { Compiler.default_options with target = Compiler.Hardware topo }
      in
      let with_commuting =
        Registry.compile_gadgets ~options Registry.phoenix case.Workloads.qn
          case.Workloads.qgadgets
      in
      (* plain SABRE: bypass the commuting-aware path by compiling the
         logical circuit first, then routing it order-respectingly *)
      let logical =
        Registry.compile_gadgets Registry.phoenix case.Workloads.qn
          case.Workloads.qgadgets
      in
      let routed = Sabre.route_with_refinement topo logical.Compiler.circuit in
      let lowered =
        Lowering.run Lowering.[ Rebase; Peephole ] routed.Sabre.circuit
      in
      ( case.Workloads.qlabel,
        (with_commuting.Compiler.num_swaps, with_commuting.Compiler.depth_2q),
        (routed.Sabre.num_swaps, Circuit.depth_2q lowered) ))
    (Workloads.qaoa_suite ())

let print fmt uccsd qaoa =
  Format.fprintf fmt "@[<v>== Ablations: UCCSD suite, logical CNOT ISA ==@,";
  Format.fprintf fmt "%-26s %-12s %-12s@," "variant" "#CNOT rate" "Depth rate";
  List.iter
    (fun (v, (c, d)) ->
      Format.fprintf fmt "%-26s %-12s %-12s@," (variant_name v)
        (Metrics.pct c) (Metrics.pct d))
    uccsd;
  Format.fprintf fmt
    "@,== Ablation: commuting-aware router vs plain SABRE (QAOA, heavy-hex) ==@,";
  Format.fprintf fmt "%-10s %-22s %-22s@," "Bench."
    "commuting (SWAP/depth)" "plain SABRE (SWAP/depth)";
  List.iter
    (fun (label, (s1, d1), (s2, d2)) ->
      Format.fprintf fmt "%-10s %6d/%-12d %6d/%-12d@," label s1 d1 s2 d2)
    qaoa;
  Format.fprintf fmt "@]@."
