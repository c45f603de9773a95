(** Shared measurement helpers for the experiment harness. *)

type counts = {
  gates : int;  (** total gates (1Q + 2Q) *)
  two_q : int;  (** CNOT or SU(4) count, per ISA *)
  depth : int;
  depth_2q : int;
}

val of_circuit : Phoenix_circuit.Circuit.t -> counts
(** CNOT-ISA accounting (the circuit must already be in CNOT basis;
    [two_q = count_2q]). *)

val geomean : float list -> float
(** Geometric mean; raises [Invalid_argument] on empty input or
    non-positive entries. *)

val ratio : int -> int -> float
(** [ratio a b = a / b] as floats. *)

val pct : float -> string
(** Render a ratio as a percentage with one decimal. *)
