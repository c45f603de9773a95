(** Quantum circuits: a qubit count plus a time-ordered gate list.

    The matrix of circuit [[g1; g2; …; gm]] is [U(gm)·…·U(g2)·U(g1)].
    Metric conventions follow the paper: 1Q gates are excluded from 2Q
    counts and 2Q depth, since they are regarded as free resources. *)

type t

val create : int -> Gate.t list -> t
(** Raises [Invalid_argument] if a gate touches a qubit outside
    [0 .. n-1]. *)

val of_validated : int -> Gate.t list -> t
(** Trusted constructor: skips the per-gate register check.  Only for
    hot paths replaying gates that already passed {!create} — e.g. a
    template rebind, where patching angles cannot move a gate's qubits. *)

val empty : int -> t
val num_qubits : t -> int
val gates : t -> Gate.t list
val gate_array : t -> Gate.t array
(** Fresh array of the gates. *)

val length : t -> int
(** Total gate count (1Q + 2Q), without expanding fused blocks. *)

val append : t -> Gate.t -> t
val concat : t -> t -> t
(** Raises [Invalid_argument] on differing qubit counts. *)

val concat_list : int -> t list -> t
(** [concat_list n cs] is the [n]-qubit concatenation of [cs] in order,
    in time linear in the total gate count.  Raises [Invalid_argument]
    like {!concat} when some circuit is not on [n] qubits. *)

val dagger : t -> t

val map_angles : (float -> float) -> t -> t
(** {!Gate.map_angles} over every gate; structure and order untouched. *)

val map_qubits : (int -> int) -> t -> t
(** Relabel qubits; the function must be injective on the used range. *)

val with_num_qubits : int -> t -> t
(** Same gates, padded to a wider register. *)

val count : (Gate.t -> bool) -> t -> int
val count_1q : t -> int
val count_2q : t -> int
(** Number of 2Q gates, counting [Su4] blocks as one and [Swap] as one;
    lower with {!Lowering.run} [[Rebase]] first for CNOT-ISA accounting. *)

val cnot_cost : Gate.t -> int
(** CNOT-equivalent cost of one gate: 0 for 1Q gates, 1 for [Cnot] and
    [Cliff2], 2 for [Rpp], 3 for [Swap], the sum of its parts for [Su4]. *)

val count_cnot : t -> int
(** Sum of {!cnot_cost} over the gates, without rewriting the circuit. *)

val depth : t -> int
(** Depth over all gates. *)

val depth_2q : t -> int
(** Depth counting only 2Q gates. *)

val layers_2q : t -> Gate.t list list
(** ASAP layering of the 2Q gates only (1Q gates dropped), earliest layer
    first.  Two gates share a layer iff their qubit sets are disjoint and
    no dependency forces an order. *)

val used_qubits : t -> int list
(** Ascending list of qubits touched by at least one gate. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
