module Pauli_string = Phoenix_pauli.Pauli_string
module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Pass = Phoenix.Pass
module Passes = Phoenix.Passes
module Group = Phoenix.Group
module Order = Phoenix.Order

(* Phase ladder for one Z-only string. *)
let ladder_gates (p, theta) =
  match Pauli_string.support_list p with
  | [] -> []
  | support ->
    let rec chain = function
      | a :: (b :: _ as rest) -> Gate.Cnot (a, b) :: chain rest
      | [ _ ] | [] -> []
    in
    let target = List.nth support (List.length support - 1) in
    let up = chain support in
    up @ [ Gate.G1 (Gate.Rz theta, target) ] @ List.rev up

let synth_commuting_set n set =
  let d = Phoenix_circuit.Diagonalize.run n set in
  (* Sorting the diagonal rotations lexicographically maximizes shared
     ladder prefixes, which the peephole collapses. *)
  let sorted =
    List.sort
      (fun (p, _) (q, _) -> Pauli_string.compare p q)
      d.Phoenix_circuit.Diagonalize.diagonal
  in
  let undo = List.rev_map Gate.dagger d.Phoenix_circuit.Diagonalize.clifford in
  d.Phoenix_circuit.Diagonalize.clifford @ List.concat_map ladder_gates sorted @ undo

let partition_pass =
  Pass.make
    ~certify:(fun ~before:_ ~after:_ -> Pass.Reordering)
    ~name:"partition"
    ~description:
      "partition the gadget program into pairwise-commuting sets (greedy, \
       program order)"
    (fun ctx ->
      let sets =
        Phoenix_circuit.Diagonalize.partition_commuting ctx.Pass.gadgets
      in
      (* of_terms keeps each set verbatim — the Clifford chosen by the
         diagonalizer depends on every string in the set. *)
      { ctx with Pass.groups = List.map (Group.of_terms ctx.Pass.n) sets })

let synth_pass =
  Pass.make ~certify:Phoenix.Passes.certify_preserving ~name:"synth"
    ~description:
      "simultaneously diagonalize each commuting set and emit its sorted \
       phase ladders under the Clifford conjugation"
    (fun ctx ->
      let n = ctx.Pass.n in
      {
        ctx with
        Pass.blocks =
          List.map
            (fun (g : Group.t) ->
              {
                Order.group = g;
                Order.circuit =
                  Circuit.create n (synth_commuting_set n g.Group.terms);
              })
            ctx.Pass.groups;
      })

let passes = [ partition_pass; synth_pass; Passes.assemble; Passes.peephole ]
