module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit

let rotation_gates gadgets =
  List.filter_map
    (fun (p, theta) ->
      match Pauli_string.support_list p with
      | [] -> None (* global phase *)
      | [ q ] -> Some (Gate.rotation_of_pauli (Pauli_string.get p q) q theta)
      | [ a; b ] ->
        Some
          (Gate.Rpp
             {
               p0 = Pauli_string.get p a;
               p1 = Pauli_string.get p b;
               a;
               b;
               theta;
             })
      | _ :: _ :: _ :: _ ->
        invalid_arg "Synthesis.rotation_gates: weight > 2 gadget")
    gadgets

(* Ladder lowering for residual rows of weight > 2 (exact-mode bailout
   cores).  Defined here, before its use in [compressed_core]. *)
let rec core_gates n ts =
  ignore n;
  List.concat_map
    (fun ((p, _) as t) ->
      if Pauli_string.weight p <= 2 then rotation_gates [ t ]
      else ladder_gadget t)
    ts

and ladder_gadget (p, theta) =
  let support = Pauli_string.support_list p in
  let basis_in =
    List.concat_map
      (fun q ->
        match Pauli_string.get p q with
        | Pauli.Z | Pauli.I -> []
        | Pauli.X -> [ Gate.G1 (Gate.H, q) ]
        | Pauli.Y -> [ Gate.G1 (Gate.Sdg, q); Gate.G1 (Gate.H, q) ])
      support
  in
  let basis_out =
    List.concat_map
      (fun q ->
        match Pauli_string.get p q with
        | Pauli.Z | Pauli.I -> []
        | Pauli.X -> [ Gate.G1 (Gate.H, q) ]
        | Pauli.Y -> [ Gate.G1 (Gate.H, q); Gate.G1 (Gate.S, q) ])
      support
  in
  let rec chain = function
    | a :: (b :: _ as rest) -> Gate.Cnot (a, b) :: chain rest
    | [ _ ] | [] -> []
  in
  let target = List.nth support (List.length support - 1) in
  let up = chain support in
  basis_in @ up @ [ Gate.G1 (Gate.Rz theta, target) ] @ List.rev up @ basis_out

(* A core of k ≥ 3 commuting rotations on one qubit pair costs 2k CNOTs
   when lowered row by row, but only a bounded Clifford sandwich around
   merged phase rotations when diagonalized first.  The diagonal terms
   are lowered in [Pauli_string.compare] order of the [n]-qubit strings
   themselves, so a group synthesized on its support emits a circuit
   that depends on its local terms alone. *)
let compressed_core n ts =
  let plain = core_gates n ts in
  let commuting =
    List.for_all
      (fun (p, _) ->
        List.for_all (fun (q, _) -> Pauli_string.commutes p q) ts)
      ts
  in
  if List.length ts < 3 || not commuting then plain
  else begin
    let d = Phoenix_circuit.Diagonalize.run n ts in
    let sorted =
      List.sort
        (fun (p, _) (q, _) -> Pauli_string.compare p q)
        d.Phoenix_circuit.Diagonalize.diagonal
    in
    let undo =
      List.rev_map Gate.dagger d.Phoenix_circuit.Diagonalize.clifford
    in
    let diag =
      d.Phoenix_circuit.Diagonalize.clifford @ core_gates n sorted @ undo
    in
    let cost gates =
      Phoenix_circuit.Lowering.(count_cnot [ Peephole ])
        (Circuit.create n gates)
    in
    if cost diag < cost plain then diag else plain
  end

let cfg_to_circuit ?(compress = true) n cfg =
  let gates =
    List.concat_map
      (function
        | Simplify.Cliff c -> [ Gate.Cliff2 c ]
        | Simplify.Rotations rs -> rotation_gates rs
        | Simplify.Core ts ->
          if compress then compressed_core n ts else core_gates n ts)
      cfg
  in
  Circuit.create n gates

let group_circuit ?exact ?compress (g : Group.t) =
  cfg_to_circuit ?compress g.Group.n (Simplify.run ?exact g.Group.n g.Group.terms)

let support_circuit ?exact ?memo k terms =
  cfg_to_circuit k (Simplify.run ?exact ?memo k terms)

(* Fig. 1(a)-style reference synthesis: 1Q basis conjugation into Z,
   a CNOT ladder onto the last support qubit, Rz, and the mirror. *)
let naive_gadget_circuit ?(chain = `Support_order) n gadgets =
  let lower (p, theta) =
    match Pauli_string.support_list p with
    | [] -> []
    | support ->
      let support =
        match chain with
        | `Support_order -> support
        | `Z_first ->
          let is_z q = Pauli_string.get p q = Pauli.Z in
          List.filter is_z support
          @ List.filter (fun q -> not (is_z q)) support
      in
      (* u·σ·u† = Z per non-Z qubit: X via H, Y via S†·H (time order). *)
      let basis_in =
        List.concat_map
          (fun q ->
            match Pauli_string.get p q with
            | Pauli.Z | Pauli.I -> []
            | Pauli.X -> [ Gate.G1 (Gate.H, q) ]
            | Pauli.Y -> [ Gate.G1 (Gate.Sdg, q); Gate.G1 (Gate.H, q) ])
          support
      in
      let basis_out =
        List.concat_map
          (fun q ->
            match Pauli_string.get p q with
            | Pauli.Z | Pauli.I -> []
            | Pauli.X -> [ Gate.G1 (Gate.H, q) ]
            | Pauli.Y -> [ Gate.G1 (Gate.H, q); Gate.G1 (Gate.S, q) ])
          support
      in
      let rec ladder = function
        | a :: (b :: _ as rest) -> Gate.Cnot (a, b) :: ladder rest
        | [ _ ] | [] -> []
      in
      let target = List.nth support (List.length support - 1) in
      let up = ladder support in
      basis_in
      @ up
      @ [ Gate.G1 (Gate.Rz theta, target) ]
      @ List.rev up
      @ basis_out
  in
  Circuit.create n (List.concat_map lower gadgets)
