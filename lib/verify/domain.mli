(** The equivalence checker's abstract domain: a signed Clifford
    frame × symbolic phase polynomial, computed over the Pauli IR.

    A gadget program or a circuit abstracts to the list of Pauli
    rotations it applies, each pulled back through the Clifford frame
    accumulated before it ([C·exp(-iθ/2 σ) = exp(-iθ/2 CσC†)·C]), plus
    the residual frame of the trailing Cliffords.  Angles are canonical
    {!Phoenix_pauli.Angle.linear} forms, so two abstractions compare
    structurally for {e every} parameter binding — the pullback never
    performs float arithmetic on a possibly-slotted angle (signs land on
    the linear form).  {!of_circuit} is the library's only rotation
    scanner: every consumer that asks "does this circuit implement this
    program" reads circuits through it. *)

type term = {
  axis : Phoenix_pauli.Pauli_string.t;  (** pulled-back rotation axis *)
  angle : Phoenix_pauli.Angle.linear;  (** canonical symbolic angle *)
}

type t = {
  n : int;
  terms : term list;  (** rotations in time order *)
  frame : Frame.t;  (** residual Clifford action *)
}

val term_to_string : term -> string

val split_quarter_turns : Phoenix_pauli.Angle.linear -> int * Phoenix_pauli.Angle.linear
(** [split_quarter_turns l] peels the nearest quarter-turn multiple out
    of [l]'s constant part: [(k, r)] with [k ∈ 0..3] quarter-turns and
    [r.const ∈ [-π/4, π/4]], such that [exp(-i·l/2·σ) =
    exp(-i·k·π/4·σ)·exp(-i·r/2·σ)] up to global phase for every
    binding.  The checker's canonicalization absorbs the [k]
    quarter-turns into the Clifford frame, so a rotation is abstracted
    identically whether a pass spelled it [S], [Rz (π/2)], or fused it
    into a neighbouring phase cell.  Slot coefficients pass through
    untouched. *)

val program_terms : (Phoenix_pauli.Pauli_string.t * float) list -> term list
(** The rotation terms of a flat gadget program, in program order
    (identity terms are dropped — they are global phases). *)

val of_terms : int -> (Phoenix_pauli.Pauli_string.t * float) list -> t
(** Abstraction of a flat gadget program: {!program_terms} under the
    identity frame. *)

val of_circuit : Phoenix_circuit.Circuit.t -> t
(** Abstraction of a circuit via the slot-safe rotation scanner.  Raises
    [Invalid_argument] on gates outside the Clifford+rotation alphabet
    (surfaced by the checker as a {e plausible} verdict, never a silent
    accept). *)
