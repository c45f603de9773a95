(** The dense equivalence oracle: does a compiled circuit equal the
    gadget program it came from, as a [2^n × 2^n] unitary?

    Exact but only viable for small [n].  It shares nothing with the
    symbolic {!Checker} — it multiplies matrices instead of propagating
    Pauli frames — so it stays the independent oracle the checker is
    tested against. *)

val unitary_check :
  ?tol:float ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix_circuit.Circuit.t ->
  (unit, string) result
(** Dense global-phase-insensitive comparison via
    {!Phoenix_linalg.Fidelity}.  [tol] (default [1e-7]) bounds the
    infidelity.  Returns [Error] without computing anything when
    [n > 12]. *)
