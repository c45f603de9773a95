(** Logical-to-physical qubit assignments.

    A layout maps [n_logical] program qubits injectively into
    [n_physical ≥ n_logical] device qubits.  Values are immutable. *)

type t

val trivial : n_logical:int -> n_physical:int -> t
(** Logical [i] on physical [i].
    Raises [Invalid_argument] if [n_logical > n_physical]. *)

val of_l2p : n_physical:int -> int array -> t
(** Explicit assignment; must be injective and in range. *)

val n_logical : t -> int
val n_physical : t -> int

val physical_of : t -> int -> int
(** Physical qubit hosting a logical qubit. *)

val to_l2p : t -> int array
(** A fresh copy of the logical-to-physical map. *)

val logical_of : t -> int -> int option
(** Logical qubit on a physical qubit, if any. *)

val swap_physical : t -> int -> int -> t
(** Exchange whatever (if anything) sits on two physical qubits. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
