(** Binary symplectic form tableau with sign tracking (§III of the paper).

    Each row is a signed Pauli exponentiation [exp(-i θ/2 · (±P))]: the bit
    vectors encode [P], [neg] records the sign accumulated by Clifford
    conjugation, and [angle] is [θ].  Conjugating the tableau by a Clifford
    [C] replaces every row [P] with [C·P·C†]; a sign flip is equivalent to
    negating the angle at synthesis time.

    The tableau is mutable: [apply_*] update it in place.

    The tableau additionally maintains a column-statistics layer (per-column
    support counts, per-row weights, and their aggregate sums), which makes
    {!cost}, {!total_weight}, {!nonlocal_count} and {!row_weight} O(1) and
    powers the greedy pair scan of {!Delta}. *)

type t

type row = { pauli : Pauli_string.t; neg : bool; angle : float }
(** Immutable snapshot of one tableau row. *)

val create : int -> t
(** Empty tableau over [n] qubits. *)

val of_terms : int -> (Pauli_string.t * float) list -> t
(** [of_terms n terms] starts with positive signs; every string must act on
    [n] qubits.  Order is preserved. *)

val copy : t -> t
val num_qubits : t -> int
val num_rows : t -> int
val rows : t -> row list
(** Rows in program order. *)

val row_weight : t -> int -> int
val row_pauli : t -> int -> Pauli_string.t

val total_weight : t -> int
(** Eq. 4: size of the union support of all rows. *)

val support : t -> Phoenix_util.Bitvec.t
val support_indices : t -> int list

val nonlocal_count : t -> int
(** Number of rows of weight strictly greater than 1. *)

val audit : t -> string list
(** Cross-check every piece of redundant state — the per-column
    support/x/z counts, their aggregate sums and triangle numbers,
    [w_tot], [n_nl], the per-row weight caches, and angle finiteness —
    against a fresh recomputation from the row bit vectors.  Returns one
    human-readable description per discrepancy; [[]] means the caches are
    consistent.  O(rows · qubits), no simulation.

    When the [PHOENIX_BSF_AUDIT] environment variable is set (non-empty,
    not ["0"]), every mutator ([apply_*], [pop_local_rows]) re-audits the
    tableau on exit and raises [Invalid_argument] on the first
    discrepancy — a debug mode for hunting incremental-bookkeeping bugs
    at their introduction site. *)

(** Deliberate corruption of the redundant cache state (never the bit
    vectors), for fault-injection tests of {!audit}, and of one sign
    bit, for tests of {!canonical_digest}. *)
module Testing : sig
  val corrupt_column_count : t -> int -> unit
  (** Bump the cached support count of one column. *)

  val corrupt_row_weight : t -> int -> unit
  (** Bump one row's cached weight. *)

  val corrupt_nonlocal_count : t -> unit
  (** Bump the cached nonlocal-row counter. *)

  val corrupt_sign : t -> int -> unit
  (** Flip one row's sign bit (invisible to {!audit}: signs are not
      cached state). *)
end

val apply_h : t -> int -> unit
val apply_s : t -> int -> unit
val apply_sdg : t -> int -> unit
val apply_cnot : t -> int -> int -> unit
(** Conjugate every row by the given Clifford gate (control, target for
    [apply_cnot]), updating signs per the stabilizer-tableau rules. *)

val apply_clifford2q : t -> Clifford2q.t -> unit
(** Conjugate by one of the six generators, via its {H, S, S†, CNOT}
    decomposition. *)

val pop_local_rows : ?commuting_only:bool -> t -> row list
(** Remove and return every row of weight ≤ 1 (in program order).
    Weight-0 rows are global phases and are returned as well so callers can
    account for them.  With [~commuting_only:true] a local row is only
    peeled when it commutes with all rows remaining in the tableau, making
    the peel an exact program transformation. *)

val cost : t -> float
(** The heuristic BSF cost of Eq. 6:
    [w_tot·n_nl² + Σ_{i<j} |sup_i ∨ sup_j|
     + ½·Σ_{i<j} (|x_i ∨ x_j| + |z_i ∨ z_j|)].

    O(1): the pairwise unions collapse to closed forms over the maintained
    per-column counts — [Σ_{i<j} |s_i ∨ s_j| = (R−1)·Σ_q c_q − Σ_q C(c_q,2)]
    and likewise for the x/z parts — so no pair loop runs.  Agrees
    bit-for-bit with {!cost_reference}. *)

val cost_reference : t -> float
(** The same quantity evaluated by the original O(R²·words) pairwise loop
    straight from the bit vectors, bypassing the incremental counters.
    Test oracle for {!cost} and {!Delta}. *)

(** The greedy search of Algorithm 1: the generator and qubit pair
    minimizing the BSF cost after conjugation.

    A generator on qubits (a,b) only rewrites columns a and b of the
    tableau, so its cost is determined by those two columns plus the
    global counters.  {!Delta.best} transposes the support columns into
    row-indexed words once per call (O(R·k) for k support qubits), then
    scores the nine generators of each qubit pair together from the XOR
    images of the pair's four columns — three popcounts per generator
    and row word, no [copy], no [apply_clifford2q], no pairwise loop,
    and no allocation per candidate.

    A {!Delta.memo} keeps scan results across calls, keyed by the state
    the scan loads: the support size k, the row count, and the support
    columns' x and z row words, indexed by support position.  The
    scan's result is a function of that key alone (columns outside the
    support are zero, so the row weights and every counter follow from
    the support columns, and the tie-break rank is defined on support
    positions), so a repeated state — in the same tableau, another
    group, or a group over other register qubits with other signs and
    angles — returns the stored generator and cost, mapped onto its own
    support, bit-identical to a fresh scan. *)
module Delta : sig
  type ws
  (** Reusable workspace; create once, pass to every {!best} call.  It
      grows to the largest tableau it has seen and is not thread-safe. *)

  val create : unit -> ws

  type memo
  (** Scan results by search state.  Safe to share across domains: a
      lookup and an insert each take its one lock once, and a scan runs
      outside it (two domains that miss the same state both scan it and
      store equal results).  It has no bound: a memo is meant to live
      for one simplify pass. *)

  val create_memo : unit -> memo

  val best : ?memo:memo -> ws -> t -> (Clifford2q.t * float) option
  (** [best ws t] is the 2Q Clifford generator on an ordered pair of
      support qubits whose conjugation leaves [t] with the lowest
      {!cost}, with exactly that cost (the bits [cost] would report
      after [apply_clifford2q]); [None] when the support has fewer than
      two qubits.  Ties go to the candidate that comes first in the
      kind-major enumeration — kinds in [Clifford2q.all_kinds] order,
      then first operand, then second, by support position — so the
      winner does not depend on the scan order.  With [memo], a state
      already scanned returns the stored result and a fresh scan is
      stored; the result is the same either way.  A scan calls
      [Phoenix_util.Budget.checkpoint] once per support qubit, and an
      interrupted one stores nothing.  After the workspace has grown, a
      call allocates only its result, a hit included; an insert also
      copies the key. *)

  val memo_counts : memo -> int * int
  (** [(calls, scans)]: the {!best} calls that consulted the memo (those
      on a support of at least two qubits) and the pair scans they ran,
      its misses.  For tests. *)
end

val to_terms : t -> (Pauli_string.t * float) list
(** Rows with signs folded into the angles (symbolically, for slot
    angles — see {!Angle}). *)

val canonical_form : t -> string
(** Content-addressing serialization of the tableau, projected onto its
    support columns in ascending order: a [k<support>;r<rows>] preamble
    followed by one string per row in program order (Pauli letters over the
    support, a sign character, and the IEEE-754 bits of the angle).  Two
    tableaux whose rows agree up to a monotone relabelling of their support
    qubits (including trailing idle qubits) have equal canonical forms.

    {!Angle} slot angles serialize as their first-use rank plus sign
    (["S0+"], ["S1-"], …) instead of IEEE bits, so structurally identical
    parametric tableaux share a canonical form across parameter values and
    across processes. *)

val canonical_digest : t -> string
(** MD5 hex digest of the {e row-sorted} canonical form — invariant under
    both support relabelling and reordering of rows within the tableau,
    and sensitive to sign flips and angle changes.  Used as the
    content-address of the synthesis cache. *)

val digest_of_canonical_form : string -> string
(** Recompute {!canonical_digest} from a stored {!canonical_form} string
    (sorts the row section, then hashes).  Lets the cache-integrity audit
    re-derive a persisted entry's address without the original tableau. *)

val pp : Format.formatter -> t -> unit
