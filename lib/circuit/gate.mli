(** Quantum gates.

    The alphabet covers the needs of every compiler in this repository:
    elementary 1Q gates, CNOT, the six abstract Clifford2Q generators, 2Q
    Pauli rotations (kept abstract until rebase), SWAP, and fused [SU4]
    blocks representing arbitrary two-qubit unitaries for the SU(4) ISA.

    Rotation conventions: [Rz θ] is [exp(-i θ/2 Z)] and likewise for
    [Rx]/[Ry]; [Rpp] is [exp(-i θ/2 σ0⊗σ1)]. *)

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
  | G1 of one_q * int  (** 1Q gate on a qubit *)
  | Cnot of int * int  (** control, target *)
  | Cliff2 of Phoenix_pauli.Clifford2q.t
  | Rpp of {
      p0 : Phoenix_pauli.Pauli.t;
      p1 : Phoenix_pauli.Pauli.t;
      a : int;
      b : int;
      theta : float;
    }  (** [exp(-i θ/2 · σ0_a ⊗ σ1_b)]; both Paulis are non-identity *)
  | Swap of int * int
  | Su4 of { a : int; b : int; parts : t list }
      (** Fused 2Q block: [parts] (time-ordered, all supported on [{a,b}])
          records the realizing sub-circuit *)

val qubits : t -> int list
(** Qubits the gate acts on (1 or 2 elements, distinct). *)

val first_qubit : t -> int
(** The first element of {!qubits}, without allocating. *)

val second_qubit : t -> int
(** The second element of {!qubits}, or [-1] for a 1Q gate, without
    allocating. *)

val is_two_qubit : t -> bool

val pair : t -> (int * int) option
(** Unordered qubit pair of a 2Q gate, normalized with smaller index
    first; [None] for 1Q gates. *)

val map_qubits : (int -> int) -> t -> t
(** Relabel every qubit operand, [Su4] parts included. *)

val dagger : t -> t
(** Inverse gate.  [Su4] inverts by reversing daggered parts. *)

val rotation_of_pauli : Phoenix_pauli.Pauli.t -> int -> float -> t
(** [rotation_of_pauli p q θ] is the 1Q rotation [exp(-i θ/2 p)] on [q].
    Raises [Invalid_argument] on [I]. *)

val of_clifford_basis : Phoenix_pauli.Clifford2q.basis_gate -> t

val map_angles : (float -> float) -> t -> t
(** Apply a function to every rotation angle ([Rx]/[Ry]/[Rz]/[Rpp]),
    recursing into [Su4] parts.  Gate structure is untouched; this is the
    primitive behind template binding and cache slot remapping. *)

val fold_angles : ('a -> float -> 'a) -> 'a -> t -> 'a
(** Fold over every rotation angle in gate order ([Su4] parts in time
    order). *)

val exists_angle : (float -> bool) -> t -> bool

val has_slot : t -> bool
(** Whether any rotation angle is a symbolic {!Phoenix_pauli.Angle} slot. *)

val one_q_equal : one_q -> one_q -> bool

val equal : t -> t -> bool
(** Structural equality.  Angles compare with [Float.equal], which treats
    all NaNs as equal — so [equal] does not distinguish two different
    {!Phoenix_pauli.Angle} slots.  Compare
    [Int64.bits_of_float]-rendered angles where slot identity matters. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
