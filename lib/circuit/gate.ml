module Pauli = Phoenix_pauli.Pauli
module Clifford2q = Phoenix_pauli.Clifford2q
module Angle = Phoenix_pauli.Angle

type one_q =
  | H
  | S
  | Sdg
  | X
  | Y
  | Z
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float

type t =
  | G1 of one_q * int
  | Cnot of int * int
  | Cliff2 of Clifford2q.t
  | Rpp of { p0 : Pauli.t; p1 : Pauli.t; a : int; b : int; theta : float }
  | Swap of int * int
  | Su4 of { a : int; b : int; parts : t list }

let qubits = function
  | G1 (_, q) -> [ q ]
  | Cnot (a, b) | Swap (a, b) -> [ a; b ]
  | Cliff2 { Clifford2q.a; b; _ } -> [ a; b ]
  | Rpp { a; b; _ } -> [ a; b ]
  | Su4 { a; b; _ } -> [ a; b ]

let first_qubit = function
  | G1 (_, a) | Cnot (a, _) | Swap (a, _) -> a
  | Cliff2 { Clifford2q.a; _ } -> a
  | Rpp { a; _ } | Su4 { a; _ } -> a

let second_qubit = function
  | G1 _ -> -1
  | Cnot (_, b) | Swap (_, b) -> b
  | Cliff2 { Clifford2q.b; _ } -> b
  | Rpp { b; _ } | Su4 { b; _ } -> b

let is_two_qubit = function
  | G1 _ -> false
  | Cnot _ | Cliff2 _ | Rpp _ | Swap _ | Su4 _ -> true

let pair g =
  match qubits g with
  | [ a; b ] -> Some (min a b, max a b)
  | [ _ ] -> None
  | _ -> assert false

let rec map_qubits f = function
  | G1 (k, q) -> G1 (k, f q)
  | Cnot (a, b) -> Cnot (f a, f b)
  | Cliff2 c -> Cliff2 { c with Clifford2q.a = f c.a; b = f c.b }
  | Rpp r -> Rpp { r with a = f r.a; b = f r.b }
  | Swap (a, b) -> Swap (f a, f b)
  | Su4 { a; b; parts } ->
    Su4 { a = f a; b = f b; parts = List.map (map_qubits f) parts }

let dagger_one_q = function
  | H -> H
  | S -> Sdg
  | Sdg -> S
  | X -> X
  | Y -> Y
  | Z -> Z
  | T -> Tdg
  | Tdg -> T
  | Rx t -> Rx (Angle.neg t)
  | Ry t -> Ry (Angle.neg t)
  | Rz t -> Rz (Angle.neg t)

let rec dagger = function
  | G1 (g, q) -> G1 (dagger_one_q g, q)
  | Cnot _ as g -> g
  | Cliff2 _ as g -> g (* the six generators are Hermitian *)
  | Rpp r -> Rpp { r with theta = Angle.neg r.theta }
  | Swap _ as g -> g
  | Su4 { a; b; parts } ->
    Su4 { a; b; parts = List.rev_map dagger parts }

let map_one_q_angle f = function
  | (H | S | Sdg | X | Y | Z | T | Tdg) as g -> g
  | Rx t -> Rx (f t)
  | Ry t -> Ry (f t)
  | Rz t -> Rz (f t)

let rec map_angles f = function
  | G1 (g, q) -> G1 (map_one_q_angle f g, q)
  | (Cnot _ | Cliff2 _ | Swap _) as g -> g
  | Rpp r -> Rpp { r with theta = f r.theta }
  | Su4 { a; b; parts } -> Su4 { a; b; parts = List.map (map_angles f) parts }

let rec fold_angles f acc = function
  | G1 ((Rx t | Ry t | Rz t), _) -> f acc t
  | G1 ((H | S | Sdg | X | Y | Z | T | Tdg), _) | Cnot _ | Cliff2 _ | Swap _
    ->
    acc
  | Rpp { theta; _ } -> f acc theta
  | Su4 { parts; _ } -> List.fold_left (fold_angles f) acc parts

let exists_angle pred g = fold_angles (fun acc t -> acc || pred t) false g
let has_slot g = exists_angle Angle.is_slot g

let rotation_of_pauli p q theta =
  match p with
  | Pauli.X -> G1 (Rx theta, q)
  | Pauli.Y -> G1 (Ry theta, q)
  | Pauli.Z -> G1 (Rz theta, q)
  | Pauli.I -> invalid_arg "Gate.rotation_of_pauli: identity"

let of_clifford_basis = function
  | Clifford2q.H q -> G1 (H, q)
  | Clifford2q.S q -> G1 (S, q)
  | Clifford2q.Sdg q -> G1 (Sdg, q)
  | Clifford2q.Cnot (a, b) -> Cnot (a, b)

let one_q_equal a b =
  match a, b with
  | Rx t, Rx u | Ry t, Ry u | Rz t, Rz u -> Float.equal t u
  | H, H | S, S | Sdg, Sdg | X, X | Y, Y | Z, Z | T, T | Tdg, Tdg -> true
  | ( (H | S | Sdg | X | Y | Z | T | Tdg | Rx _ | Ry _ | Rz _),
      (H | S | Sdg | X | Y | Z | T | Tdg | Rx _ | Ry _ | Rz _) ) ->
    false

let rec equal g h =
  match g, h with
  | G1 (a, q), G1 (b, r) -> q = r && one_q_equal a b
  | Cnot (a, b), Cnot (c, d) | Swap (a, b), Swap (c, d) -> a = c && b = d
  | Cliff2 a, Cliff2 b -> Clifford2q.equal_gate a b
  | Rpp a, Rpp b ->
    a.p0 = b.p0 && a.p1 = b.p1 && a.a = b.a && a.b = b.b
    && Float.equal a.theta b.theta
  | Su4 a, Su4 b ->
    a.a = b.a && a.b = b.b
    && List.length a.parts = List.length b.parts
    && List.for_all2 equal a.parts b.parts
  | (G1 _ | Cnot _ | Cliff2 _ | Rpp _ | Swap _ | Su4 _), _ -> false

(* [Angle.to_string] prints consts as %g and slots as "slot#id", so dumps
   of parametric circuits stay readable without a separate printer. *)
let one_q_to_string = function
  | H -> "H"
  | S -> "S"
  | Sdg -> "Sdg"
  | X -> "X"
  | Y -> "Y"
  | Z -> "Z"
  | T -> "T"
  | Tdg -> "Tdg"
  | Rx t -> Printf.sprintf "Rx(%s)" (Angle.to_string t)
  | Ry t -> Printf.sprintf "Ry(%s)" (Angle.to_string t)
  | Rz t -> Printf.sprintf "Rz(%s)" (Angle.to_string t)

let to_string = function
  | G1 (g, q) -> Printf.sprintf "%s q%d" (one_q_to_string g) q
  | Cnot (a, b) -> Printf.sprintf "CNOT q%d,q%d" a b
  | Cliff2 c -> Format.asprintf "%a" Clifford2q.pp c
  | Rpp { p0; p1; a; b; theta } ->
    Printf.sprintf "R%c%c(%s) q%d,q%d" (Pauli.to_char p0) (Pauli.to_char p1)
      (Angle.to_string theta) a b
  | Swap (a, b) -> Printf.sprintf "SWAP q%d,q%d" a b
  | Su4 { a; b; parts } -> Printf.sprintf "SU4[%d] q%d,q%d" (List.length parts) a b

let pp fmt g = Format.pp_print_string fmt (to_string g)
