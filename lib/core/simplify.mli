(** Heuristic BSF simplification — Algorithm 1 of the paper.

    Each search epoch peels local (weight ≤ 1) Pauli rotations, then
    greedily applies the 2Q Clifford generator (Eq. 5) and qubit pair
    minimizing the BSF cost (Eq. 6), until the tableau's total weight
    (Eq. 4) is at most 2.  The output configuration is a time-ordered
    list of circuit components preserving the semantics
    [G = C†·G'·C] per epoch (the generators are Hermitian, so each
    appears verbatim on both sides).

    When the greedy search stalls (no candidate changes the cost), the
    constructive fallback the paper sketches takes over: a maximum-weight
    row is reduced one qubit at a time by pair-kill conjugations, which
    guarantees termination (each stall cycle makes one row local, and the
    default mode peels it).  In exact mode an unpeelable local could undo
    that progress, so a stall ends the search instead and the residual
    rows are synthesized directly. *)

type item =
  | Cliff of Phoenix_pauli.Clifford2q.t
      (** one conjugation layer (applied verbatim — Hermitian) *)
  | Rotations of (Phoenix_pauli.Pauli_string.t * float) list
      (** peeled local rotations (weight ≤ 1 strings, sign already folded
          into the angle; weight-0 entries are global phases) *)
  | Core of (Phoenix_pauli.Pauli_string.t * float) list
      (** the residual tableau — total weight ≤ 2 except when an
          exact-mode run bails out of a greedy stall, in which case
          arbitrary-weight rows remain (in program order) and the
          synthesis lowers them through ladders *)

type t = item list
(** Time-ordered component list: leading [Cliff]s, one [Core], then
    alternating [Cliff]/[Rotations] unwinding the conjugations. *)

val run :
  ?exact:bool ->
  ?max_epochs:int ->
  ?memo:Phoenix_pauli.Bsf.Delta.memo ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  t
(** [run n terms] simplifies a gadget list over [n] qubits.  With
    [~exact:true] local rows are only peeled when they commute with the
    rest of the tableau, making the output exactly unitarily equivalent
    (instead of equivalent up to Trotter-reordering freedom).  [memo]
    answers the greedy epochs' pair scans for search states it has
    already seen ({!Phoenix_pauli.Bsf.Delta.best}); the output does not
    depend on it. *)

val num_cliffords : t -> int
val core_terms : t -> (Phoenix_pauli.Pauli_string.t * float) list
