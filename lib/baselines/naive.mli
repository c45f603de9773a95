(** Textbook per-gadget synthesis (Fig. 1(a) of the paper): each Pauli
    exponentiation becomes a 1Q basis conjugation around a CNOT ladder
    with an [Rz] at the bottom, in the original program order.  This is
    the "original circuit" against which optimization rates are
    reported (Table I / Table II). *)

val passes : Phoenix.Pass.t list
(** The single-pass pipeline: synth. *)
