(** Complex-weighted sums of Pauli strings — the operator algebra in which
    fermionic ladder operators are expanded.

    Values are normalized: like strings are collected and terms with
    negligible coefficients dropped. *)

type t

val zero : int -> t
(** The zero operator over [n] qubits. *)

val of_term : Complex.t -> Phoenix_pauli.Pauli_string.t -> t
val identity : int -> t
(** The identity operator (coefficient 1 on the all-[I] string). *)

val num_qubits : t -> int
val terms : t -> (Complex.t * Phoenix_pauli.Pauli_string.t) list
(** Normalized term list in a canonical (string-sorted) order. *)

val num_terms : t -> int
val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val scale : Complex.t -> t -> t
val mul : t -> t -> t
(** Operator product, expanding Pauli-string products with phases. *)

val dagger : t -> t
(** Hermitian adjoint: conjugates coefficients (Pauli strings are
    self-adjoint). *)

val anticommutator : t -> t -> t
(** [{a, b} = a·b + b·a]. *)

val is_hermitian : t -> bool
val is_anti_hermitian : t -> bool

val to_hermitian_terms : t -> (Phoenix_pauli.Pauli_string.t * float) list
(** Real coefficients of a Hermitian sum, identity term dropped.
    Raises [Invalid_argument] when some coefficient has a significant
    imaginary part. *)

val pp : Format.formatter -> t -> unit
