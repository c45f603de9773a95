(** Fixed-length bit vectors backed by [int] words.

    Bit vectors are the storage substrate of the binary symplectic form: a
    Pauli string over [n] qubits is a pair of length-[n] bit vectors.  All
    operations are length-checked; combining vectors of different lengths
    raises [Invalid_argument]. *)

type t
(** A mutable fixed-length bit vector. *)

val create : int -> t
(** [create n] is an all-zero vector of length [n].  [n] must be
    non-negative. *)

val length : t -> int
(** Number of bits. *)

val copy : t -> t
(** Independent copy. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the bits of [src].  The lengths must match. *)

val num_words : t -> int
(** Number of backing words (each holding {!bits_per_word} bits). *)

val word : t -> int -> int
(** [word v i] is backing word [i]; bits beyond [length v] are zero.
    Together with [num_words] this allows word-parallel read-only loops
    over several vectors of equal length. *)

val bits_per_word : int
(** Payload bits per backing word (62). *)

val word_count : int -> int
(** [word_count n] is the number of backing words a length-[n] vector
    uses — [⌈n / bits_per_word⌉], at least 1. *)

val blit_words_to : t -> int array -> int -> unit
(** [blit_words_to v arr off] copies the backing words of [v] into
    [arr] starting at [off].  [arr] must have room for [num_words v]
    words from [off]; raises [Invalid_argument] otherwise.  Interop
    with flat word arenas ({!Arena}). *)

val of_words : int -> int array -> int -> t
(** [of_words n arr off] is a fresh length-[n] vector whose backing
    words are copied from [arr.(off) ..].  Bits beyond [n] in the last
    word must be zero (unchecked — callers own the invariant). *)

val popcount_word : int -> int
(** Branch-free population count of one backing word ([0 ≤ w < 2^62]). *)

val ctz_word : int -> int
(** Index of the lowest set bit of a non-zero word. *)

val get : t -> int -> bool
(** [get v i] is bit [i].  Raises [Invalid_argument] if out of range. *)

val get_unsafe : t -> int -> bool
(** [get v i] without the bounds check.  Out-of-range indices are
    undefined behaviour; reserved for audited hot loops. *)

val get2_unsafe : t -> int -> int -> int
(** [get2_unsafe v a b] packs bits [a] and [b] into an int: bit 0 is
    [get v a], bit 1 is [get v b].  No bounds checks. *)

val set : t -> int -> bool -> unit
(** [set v i b] sets bit [i] to [b]. *)

val flip : t -> int -> unit
(** [flip v i] toggles bit [i]. *)

val popcount : t -> int
(** Number of set bits. *)

val is_zero : t -> bool
(** [true] iff no bit is set. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** Non-allocating hash that mixes every word, for hash tables keyed by
    wide vectors (a qubit-support set, say). *)

val xor_into : t -> t -> unit
(** [xor_into dst src] sets [dst <- dst lxor src]. *)

val or_into : t -> t -> unit
(** [or_into dst src] sets [dst <- dst lor src]. *)

val and_into : t -> t -> unit
(** [and_into dst src] sets [dst <- dst land src]. *)

val logxor : t -> t -> t
val logor : t -> t -> t
val logand : t -> t -> t

val and_popcount : t -> t -> int
(** [and_popcount a b] is [popcount (logand a b)] without allocation. *)

val or_popcount : t -> t -> int
(** [or_popcount a b] is [popcount (logor a b)] without allocation. *)

val iter_set : (int -> unit) -> t -> unit
(** [iter_set f v] applies [f] to the index of every set bit, ascending. *)

val fold_set : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [fold_set f init v] folds over indices of set bits, ascending. *)

val indices : t -> int list
(** Ascending list of set-bit indices. *)

val first_set : t -> int option
(** Lowest set-bit index, if any. *)

val of_indices : int -> int list -> t
(** [of_indices n is] is the length-[n] vector with exactly bits [is] set. *)

val of_string : string -> t
(** [of_string "0110"] parses a vector, index 0 first.  Raises
    [Invalid_argument] on characters other than '0'/'1'. *)

val to_string : t -> string
(** Inverse of [of_string]. *)

val pp : Format.formatter -> t -> unit
