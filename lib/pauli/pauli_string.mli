(** Multi-qubit Pauli strings in binary symplectic encoding.

    A string over [n] qubits is a pair of length-[n] bit vectors [(x, z)];
    qubit [q] carries [Pauli.of_bits ~x:(x.q) ~z:(z.q)].  Values are
    semantically immutable: all operations return fresh strings. *)

type t

val num_qubits : t -> int

val identity : int -> t
(** All-[I] string over [n] qubits. *)

val of_list : Pauli.t list -> t
val to_list : t -> Pauli.t list

val of_string : string -> t
(** [of_string "ZYY"] is the 3-qubit string Z⊗Y⊗Y (qubit 0 leftmost).
    Raises [Invalid_argument] on bad characters or empty input. *)

val to_string : t -> string

val of_bits : x:Phoenix_util.Bitvec.t -> z:Phoenix_util.Bitvec.t -> t
(** Raises [Invalid_argument] if the vectors' lengths differ. *)

val of_bits_owned : x:Phoenix_util.Bitvec.t -> z:Phoenix_util.Bitvec.t -> t
(** Like {!of_bits} but takes ownership of the vectors without copying.
    The caller must never mutate them afterwards — reserved for
    constructors that just built fresh vectors (e.g. the BSF tableau
    materializing a row snapshot from its arena). *)

val blit_bits_to :
  t -> x_dst:int array -> x_off:int -> z_dst:int array -> z_off:int -> unit
(** Copy the backing words of the x (resp. z) vector into [x_dst] at
    [x_off] (resp. [z_dst] at [z_off]) — flat-arena interop without an
    intermediate vector copy. *)

val get : t -> int -> Pauli.t
val set : t -> int -> Pauli.t -> t
(** Functional update. *)

val single : int -> int -> Pauli.t -> t
(** [single n q p] is the [n]-qubit string with [p] on qubit [q]. *)

val weight : t -> int
(** Number of non-identity components. *)

val support : t -> Phoenix_util.Bitvec.t
(** Bit [q] set iff qubit [q] is non-identity. *)

val support_into : t -> Phoenix_util.Bitvec.t -> unit
(** [support_into p dst] overwrites [dst] with [support p] without
    allocating.  [dst] must have [num_qubits p] bits. *)

val support_list : t -> int list
(** Ascending indices of non-identity qubits. *)

val is_identity : t -> bool

val commutes : t -> t -> bool
(** Symplectic commutation: [P] and [Q] commute iff the number of positions
    where both are non-identity and different ... formally iff
    [popcount (Px·Qz) + popcount (Pz·Qx)] is even. *)

val mul : t -> t -> int * t
(** [mul p q] is [(k, r)] with [p·q = i^k · r]. *)

val restrict : t -> int array -> t
(** [restrict p sites] is the string over [Array.length sites] qubits
    whose qubit [i] is qubit [sites.(i)] of [p] — a group relabelled
    onto its support.  [sites] must be strictly ascending qubits of
    [p]; when they are all of them, [p] itself is returned. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
val pp : Format.formatter -> t -> unit
