module Bitvec = Phoenix_util.Bitvec
module Pauli_string = Phoenix_pauli.Pauli_string
module Circuit = Phoenix_circuit.Circuit
module Lowering = Phoenix_circuit.Lowering
module Pass = Phoenix.Pass
module Passes = Phoenix.Passes
module Group = Phoenix.Group
module Order = Phoenix.Order
module Synthesis = Phoenix.Synthesis

let overlap a b =
  Bitvec.and_popcount a.Group.support b.Group.support

let order_blocks blocks =
  match blocks with
  | [] | [ _ ] -> blocks
  | first :: rest ->
    let rec chain acc last pool =
      match pool with
      | [] -> List.rev acc
      | _ ->
        let best =
          List.fold_left
            (fun best cand ->
              match best with
              | Some b when overlap last b >= overlap last cand -> best
              | Some _ | None -> Some cand)
            None pool
        in
        let chosen = match best with Some b -> b | None -> assert false in
        chain (chosen :: acc) chosen (List.filter (fun b -> b != chosen) pool)
    in
    chain [ first ] first rest

let sorted_terms (g : Group.t) =
  List.sort (fun (p, _) (q, _) -> Pauli_string.compare p q) g.Group.terms

(* Block-local synthesis: Paulihedral's CNOT-tree co-optimization shares
   tree segments between the gadgets of one block; the equivalent saving
   is obtained here by diagonalizing the block when its terms commute
   (always true for UCCSD excitation blocks) and falling back to shared
   Z-first ladders otherwise. *)
let block_circuit n (g : Group.t) =
  let ladder_version =
    Synthesis.naive_gadget_circuit ~chain:`Z_first n (sorted_terms g)
  in
  if not (Group.all_commuting g) then ladder_version
  else begin
    let d = Phoenix_circuit.Diagonalize.run n g.Group.terms in
    let sorted =
      List.sort
        (fun (p, _) (q, _) -> Pauli_string.compare p q)
        d.Phoenix_circuit.Diagonalize.diagonal
    in
    let ladders = Circuit.gates (Synthesis.naive_gadget_circuit n sorted) in
    let undo =
      List.rev_map Phoenix_circuit.Gate.dagger
        d.Phoenix_circuit.Diagonalize.clifford
    in
    let diag_version =
      Circuit.create n (d.Phoenix_circuit.Diagonalize.clifford @ ladders @ undo)
    in
    let cost c = Lowering.count_cnot [ Lowering.Peephole ] c in
    if cost diag_version <= cost ladder_version then diag_version
    else ladder_version
  end

let order_pass =
  Pass.make
    ~certify:(fun ~before:_ ~after:_ -> Pass.Reordering)
    ~name:"order"
    ~description:"chain IR blocks greedily by support overlap"
    (fun ctx -> { ctx with Pass.groups = order_blocks ctx.Pass.groups })

let synth_pass =
  Pass.make
    ~certify:(fun ~before:_ ~after:_ -> Pass.Reordering)
    ~name:"synth"
    ~description:
      "block-local synthesis: diagonalized ladders or shared Z-first \
       ladders, whichever peepholes to fewer CNOTs"
    (fun ctx ->
      {
        ctx with
        Pass.blocks =
          List.map
            (fun (g : Group.t) ->
              { Order.group = g; Order.circuit = block_circuit ctx.Pass.n g })
            ctx.Pass.groups;
      })

let passes =
  [ Passes.group; order_pass; synth_pass; Passes.assemble; Passes.peephole ]
