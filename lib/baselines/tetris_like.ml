module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Pass = Phoenix.Pass
module Passes = Phoenix.Passes
module Group = Phoenix.Group
module Order = Phoenix.Order
module Synthesis = Phoenix.Synthesis

(* A shared qubit with the same Pauli basis lets an entire ladder leg
   cancel; a shared qubit with a different basis still shares the CNOT
   but pays basis-change 1Q gates. *)
let boundary_score p q =
  let n = Pauli_string.num_qubits p in
  let score = ref 0.0 in
  for i = 0 to n - 1 do
    match Pauli_string.get p i, Pauli_string.get q i with
    | Pauli.I, _ | _, Pauli.I -> ()
    | a, b when Pauli.equal a b -> score := !score +. 1.0
    | _, _ -> score := !score +. 0.3
  done;
  !score

let sorted_terms (g : Group.t) =
  List.sort (fun (p, _) (q, _) -> Pauli_string.compare p q) g.Group.terms

let last_term g =
  match List.rev (sorted_terms g) with
  | (p, _) :: _ -> p
  | [] -> assert false

let first_term g =
  match sorted_terms g with
  | (p, _) :: _ -> p
  | [] -> assert false

let order_blocks blocks =
  match blocks with
  | [] | [ _ ] -> blocks
  | first :: rest ->
    let rec chain acc last pool =
      match pool with
      | [] -> List.rev acc
      | _ ->
        let score cand = boundary_score (last_term last) (first_term cand) in
        let best =
          List.fold_left
            (fun best cand ->
              match best with
              | Some b when score b >= score cand -> best
              | Some _ | None -> Some cand)
            None pool
        in
        let chosen = match best with Some b -> b | None -> assert false in
        chain (chosen :: acc) chosen (List.filter (fun b -> b != chosen) pool)
    in
    chain [ first ] first rest

let order_pass =
  Pass.make
    ~certify:(fun ~before:_ ~after:_ -> Pass.Reordering)
    ~name:"order"
    ~description:
      "chain IR blocks by boundary cancellation compatibility (matching \
       Pauli bases on shared qubits)"
    (fun ctx -> { ctx with Pass.groups = order_blocks ctx.Pass.groups })

let synth_pass =
  Pass.make
    ~certify:(fun ~before:_ ~after:_ -> Pass.Reordering)
    ~name:"synth"
    ~description:
      "lower each block as sorted Z-first CNOT ladders (boundary legs \
       cancel across blocks)"
    (fun ctx ->
      {
        ctx with
        Pass.blocks =
          List.map
            (fun (g : Group.t) ->
              {
                Order.group = g;
                Order.circuit =
                  Synthesis.naive_gadget_circuit ~chain:`Z_first ctx.Pass.n
                    (sorted_terms g);
              })
            ctx.Pass.groups;
      })

let passes =
  [ Passes.group; order_pass; synth_pass; Passes.assemble; Passes.peephole ]
