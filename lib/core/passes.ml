module Circuit = Phoenix_circuit.Circuit
module Lowering = Phoenix_circuit.Lowering
module Rebase = Phoenix_circuit.Rebase
module Sabre = Phoenix_router.Sabre
module Structural = Phoenix_verify.Structural
module Diag = Phoenix_verify.Diag

let maybe_peephole (options : Pass.options) c =
  if options.peephole then Lowering.run [ Lowering.Peephole ] c else c

(* Certificate helpers shared with the baseline pipelines.  A pass that
   installed a layout claims the routing permutation it chose; a routing
   pass that (unexpectedly) recorded no layout falls back to the plain
   reordering claim, which the checker then refutes on the register
   mismatch instead of silently accepting. *)
let certify_unchanged ~before:_ ~after:_ = Pass.Unchanged
let certify_preserving ~before:_ ~after:_ = Pass.Preserving

let certify_routing ~before:_ ~(after : Pass.ctx) =
  match after.Pass.layout with
  | Some l ->
    Pass.Routing
      {
        l2p = Array.init after.Pass.n (Phoenix_router.Layout.physical_of l);
        n_physical = Circuit.num_qubits after.Pass.circuit;
      }
  | None -> Pass.Reordering

let cnot_lowering (options : Pass.options) =
  if options.peephole then Lowering.[ Peephole; Rebase; Fold; Peephole ]
  else [ Lowering.Rebase ]

let group =
  Pass.make
    ~certify:(fun ~before ~after:_ ->
      (* Algorithm blocks and exact-mode grouping keep the program
         order (commuting exchanges only); support-keyed grouping
         exploits the Trotter-order freedom. *)
      match before.Pass.term_blocks with
      | Some _ -> Pass.Preserving
      | None ->
        if before.Pass.options.exact then Pass.Preserving else Pass.Reordering)
    ~name:"group"
    ~description:
      "partition the gadget program into IR groups (algorithm blocks when \
       known, support-keyed otherwise)"
    (fun ctx ->
      match ctx.Pass.term_blocks with
      | Some blocks -> { ctx with Pass.groups = Group.of_blocks ctx.Pass.n blocks }
      | None ->
        {
          ctx with
          Pass.groups =
            Group.group_gadgets ~exact:ctx.Pass.options.exact ctx.Pass.n
              ctx.Pass.gadgets;
        })

let assemble =
  Pass.make ~certify:certify_unchanged ~name:"assemble"
    ~description:"concatenate the per-group circuits in their final order"
    (fun ctx ->
      {
        ctx with
        Pass.circuit =
          Circuit.concat_list ctx.Pass.n
            (List.map (fun b -> b.Order.circuit) ctx.Pass.blocks);
      })

let peephole =
  Pass.make ~certify:certify_preserving ~name:"peephole"
    ~description:"Qiskit-O3-style peephole cleanup (fusion, cancellation)"
    (fun ctx ->
      { ctx with Pass.circuit = maybe_peephole ctx.Pass.options ctx.Pass.circuit })

(* Pre-routing 2Q count under the target ISA, recorded for
   routing-overhead ratios. *)
let logical_isa_count (options : Pass.options) c =
  match options.isa with
  | Pass.Cnot_isa -> Circuit.count_2q c
  | Pass.Su4_isa -> Rebase.count_su4 c

let rebase =
  Pass.make
    ~certify:(fun ~before ~after:_ ->
      match before.Pass.options.isa with
      | Pass.Cnot_isa -> Pass.Unchanged
      | Pass.Su4_isa -> Pass.Preserving)
    ~name:"rebase"
    ~description:"rebase the logical circuit to the target ISA"
    (fun ctx ->
      match ctx.Pass.options.isa with
      | Pass.Cnot_isa ->
        { ctx with Pass.logical_two_q = Circuit.count_2q ctx.Pass.circuit }
      | Pass.Su4_isa ->
        let c = Rebase.to_su4 ctx.Pass.circuit in
        { ctx with Pass.circuit = c; Pass.logical_two_q = Circuit.count_2q c })

let route_sabre =
  Pass.make
    ~certify:(fun ~before ~after ->
      match before.Pass.options.target with
      | Pass.Logical -> Pass.Unchanged
      | Pass.Hardware _ -> certify_routing ~before ~after)
    ~name:"route"
    ~description:"SABRE swap insertion with bidirectional layout refinement"
    (fun ctx ->
      match ctx.Pass.options.target with
      | Pass.Logical -> ctx
      | Pass.Hardware topo ->
        let logical_two_q = logical_isa_count ctx.Pass.options ctx.Pass.circuit in
        let r =
          Sabre.route_with_refinement
            ~iterations:ctx.Pass.options.sabre_iterations topo ctx.Pass.circuit
        in
        {
          ctx with
          Pass.circuit = r.Sabre.circuit;
          Pass.num_swaps = r.Sabre.num_swaps;
          Pass.layout = Some r.Sabre.initial_layout;
          Pass.logical_two_q;
        })

let lower_routed =
  Pass.make ~certify:certify_preserving ~name:"lower"
    ~description:"expand SWAPs and rebase the routed circuit to the target ISA"
    (fun ctx ->
      match ctx.Pass.options.isa with
      | Pass.Cnot_isa ->
        let stages =
          if ctx.Pass.options.peephole then Lowering.[ Rebase; Peephole ]
          else [ Lowering.Rebase ]
        in
        { ctx with Pass.circuit = Lowering.run stages ctx.Pass.circuit }
      | Pass.Su4_isa ->
        {
          ctx with
          Pass.circuit =
            Rebase.to_su4 (maybe_peephole ctx.Pass.options ctx.Pass.circuit);
        })

let verify_structural =
  Pass.make ~certify:certify_unchanged ~name:"verify"
    ~description:
      "structural validation: ISA alphabet, qubit range, coupling compliance"
    (fun ctx ->
      let isa_basis = Pass.structural_isa ctx.Pass.options.isa in
      let topology =
        match ctx.Pass.options.target with
        | Pass.Hardware t -> Some t
        | Pass.Logical -> None
      in
      match Structural.validate ~isa:isa_basis ?topology ctx.Pass.circuit with
      | [] ->
        Pass.diagf ~pass:"structural" Diag.Info ctx
          "ISA alphabet, qubit range%s verified"
          (if topology = None then "" else " and coupling-graph compliance")
      | violations ->
        {
          ctx with
          Pass.diagnostics = List.rev_append violations ctx.Pass.diagnostics;
        })
