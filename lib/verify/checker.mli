(** The equivalence checker: does a circuit implement a gadget program,
    and does a pass's output implement its input under the rewrite
    freedom the pass claims?

    Both questions are decided in the abstract domain ({!Domain}), which
    is rebuilt from raw gates on both sides, so the checker depends on
    nothing above [lib/circuit] and cannot see pass internals.  Every
    consumer shares it: per-group [--verify], the verify pass's budget
    fallback, the translation-validation hook, the
    [translation-validation] lint and pass-boundary certification.

    A {!claim} names a rewrite freedom; the relations are:

    - {!Unchanged} — the two abstractions must be structurally identical
      (same terms in the same order, equal frames).
    - {!Preserving} — the rotation sequences must have the same
      trace-monoid normal form: equal up to commuting exchanges, merges
      of simultaneously available same-axis rotations, and drops of
      rotations that vanish modulo 2π (global phase).
    - {!Reordering} — the per-axis angle sums (the phase polynomial as a
      multiset collapsed along the Trotter freedom) must agree.
    - {!Routing} — the output must act on the claimed physical register,
      its residual frame must be the placed image of the input's frame
      modulo a wire permutation (the SWAP residue), and — relabeled
      through the claimed initial layout — its rotations must match the
      input under the sequence (exact mode) or multiset relation.

    Every relation is tried twice: first on the raw abstractions (exact,
    robust to reordering), then on {!canonicalize}d ones (reconciles
    gate-vs-rotation spellings of Clifford phases, e.g. [S] vs a folded
    [Rz (π/2)]).  Each prover is individually sound, so the disjunction
    is.  Angle equality is structural over the {!Phoenix_pauli.Angle}
    arena (canonical linear forms, consts modulo 2π), so a certified
    template is certified for {e all} parameter bindings at once.
    Anything the checker cannot decide is {!Plausible}, never a silent
    accept. *)

type claim =
  | Unchanged
  | Preserving
  | Reordering
  | Routing of { l2p : int array; n_physical : int }
      (** [l2p.(logical) = physical] initial placement; [n_physical] is
          the physical register width. *)

type verdict = Proved | Plausible of string | Refuted of string

val verdict_label : verdict -> string
(** ["proved"], ["plausible"] or ["refuted"]. *)

val verdict_reason : verdict -> string option

val to_result : verdict -> (unit, string) result
(** [Proved] is [Ok ()]; [Refuted] and [Plausible] both fail closed with
    their reason, so an undecided check is treated like a failed one. *)

val check_claim : exact:bool -> claim -> Domain.t -> Domain.t -> verdict
(** [check_claim ~exact claim before after]: does [after] implement
    [before] under [claim]'s relation?  [exact] selects the sequence
    relation for a routing claim. *)

val check_program :
  ?exact:bool ->
  ?l2p:int array ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix_circuit.Circuit.t ->
  verdict
(** End-to-end check: does [circuit] implement the [n]-qubit gadget
    [program]?  With [l2p] (a routed compile's initial placement) the
    routing relation is used; otherwise the circuit may extend the
    register with dangling wires but must leave an identity frame.
    [exact] selects the sequence relation instead of the multiset one.
    A check that proves on the raw attempt allocates one n-qubit frame
    (the circuit scan's). *)

(** {1 Exposed for tests} *)

val normal_form : Domain.term list -> Domain.term list
(** The canonical sequence behind the [Preserving] relation: zero-drops,
    greedy-lexicographic commuting exchanges, same-axis merges. *)

val canonicalize : Domain.t -> Domain.t
(** Exact refactoring of an abstraction: normal-form the terms, then
    sweep left to right peeling quarter-turn constants
    ({!Domain.split_quarter_turns}) into an accumulated Clifford that is
    finally composed into the residual frame; repeat until a normal
    form merges nothing (a peel can bring two terms onto one axis).
    Both sides of a relation are canonicalized together, so a pass that
    respelled a Clifford phase as a rotation (or fused it into a
    neighbouring cell) compares equal to one that kept the gate. *)

val compare_multiset : Domain.term list -> Domain.term list -> verdict
val compare_sequence : Domain.term list -> Domain.term list -> verdict
