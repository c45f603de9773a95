(** Flat contiguous word arenas with row-stride indexing.

    An arena is one growable [int array] holding [rows] fixed-[stride]
    records back to back: record [i] occupies words
    [[i·stride, (i+1)·stride)].  It is the storage substrate of the
    binary-symplectic-form tableau: every row's x- and z-bit words live
    in one allocation, so row-major sweeps (the simplify/delta hot
    loops) walk memory linearly and mutators never allocate.

    The backing buffer is deliberately exposed ({!buffer}): the
    tableau's audited hot loops index it directly, at record offsets
    [i·stride] ({!base} is the checked form).  The buffer reference is
    only invalidated by {!push} and {!push_n} (which may grow it) —
    never by {!compact}. *)

type t

val create : ?capacity:int -> stride:int -> unit -> t
(** An empty arena of [stride] words per record ([stride ≥ 1]).
    [capacity] pre-reserves room for that many records. *)

val stride : t -> int
val rows : t -> int

val buffer : t -> int array
(** The live backing buffer.  Words beyond [rows·stride] are unspecified.
    Hold the reference only within one sweep: {!push} may replace it. *)

val base : t -> int -> int
(** [base a i] is the word offset of record [i] — [i · stride a], with a
    bounds check on [i]. *)

val push : t -> int
(** Append one zeroed record, growing the buffer geometrically if full;
    returns the new record's index. *)

val push_n : t -> int -> unit
(** Append [k] zeroed records at once (one growth step at most). *)

val compact : t -> keep:(int -> bool) -> (int -> int -> unit) -> int
(** [compact a ~keep moved] drops every record whose index fails [keep],
    sliding the survivors down in order.  [moved old_i new_i] is called
    for every surviving record (including unmoved ones, with
    [old_i = new_i]) so parallel side arrays can follow the same
    permutation.  Returns the new record count.  Does not shrink the
    buffer. *)

val copy : t -> t
(** Independent copy, trimmed to the live records. *)

val words_equal : t -> int -> t -> int -> bool
(** [words_equal a i b j]: record [i] of [a] and record [j] of [b] hold
    identical words (strides must match). *)
