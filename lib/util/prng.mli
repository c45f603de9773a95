(** Deterministic splitmix64 pseudo-random number generator.

    All stochastic pieces of the repository (synthetic UCCSD amplitudes,
    random graphs, property-test inputs that need repository-level
    reproducibility) draw from this generator so that every experiment is
    reproducible from a seed, independently of the OCaml [Random] state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val fill_float : t -> float -> float array -> int -> unit
(** [fill_float t bound a n] stores [n] successive [float t bound] draws
    in [a.(0)] … [a.(n-1)], allocating nothing. *)

val bool : t -> bool

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [lo, hi). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list.  Raises [Invalid_argument] on []. *)
