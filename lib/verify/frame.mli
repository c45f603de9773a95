(** Signed Clifford conjugation frames for translation validation.

    Scanning a circuit [g1; …; gm] in time order while folding each
    Clifford gate into the frame maintains the map
    [σ ↦ F† σ F] where [F = U(gk)·…·U(g1)] is the product of the
    Clifford gates seen so far.  A rotation gate [exp(-i θ/2 σ)]
    encountered mid-scan therefore acts, pulled back to the circuit's
    input frame, along the signed Pauli axis [image frame σ] — which is
    how {!Domain.of_circuit} abstracts a circuit for the {!Checker}.
    All operations are polynomial in the qubit count (no [2^n]
    objects), so the check scales to full benchmark sizes. *)

type t

val identity : int -> t
(** Identity frame over [n] qubits.  Raises [Invalid_argument] when
    [n <= 0]. *)

val num_qubits : t -> int

val copy : t -> t

val is_clifford_gate : Phoenix_circuit.Gate.t -> bool
(** Whether {!apply_gate} accepts the gate.  [Su4] blocks are Clifford
    iff all their parts are. *)

val apply_gate : t -> Phoenix_circuit.Gate.t -> unit
(** Fold one more circuit gate into the frame (in place).  Raises
    [Invalid_argument] on non-Clifford gates ([Rx]/[Ry]/[Rz]/[T]/[Tdg]
    and [Rpp]) — classify with {!is_clifford_gate} first. *)

val apply_pauli_rotation : t -> Phoenix_pauli.Pauli_string.t -> int -> unit
(** [apply_pauli_rotation f σ k] folds the Clifford rotation
    [exp(-i k π/4 σ)] — [k] quarter-turns about the wire-level Pauli
    axis [σ] — into the frame, exactly as if the equivalent Clifford
    gate sequence had been passed to {!apply_gate}.  [k] is taken mod
    4; [k = 0] is a no-op.  On a single-qubit Z axis, [k = 1/2/3]
    match [S]/[Z]/[Sdg] up to global phase.  This lets a scanner
    canonicalize rotations whose constant angle is a multiple of π/2
    into the frame regardless of how a pass spelled them (e.g.
    [S] vs [Rz (π/2)] after phase folding). *)

val compose : t -> t -> t
(** [compose a b] is the frame of the concatenated scan: the circuit
    whose gates are [a]'s followed (later in time) by [b]'s.  Its
    pullback map is [σ ↦ a(b(σ))].  Raises [Invalid_argument] on a
    qubit-count mismatch. *)

val image : t -> Phoenix_pauli.Pauli_string.t -> bool * Phoenix_pauli.Pauli_string.t
(** [image f σ] is the signed pullback [F† σ F] as [(negated, string)]. *)

val equal : t -> t -> bool
(** Equality of Clifford actions: same width and the same signed images
    of the 2n X/Z generators, which determine the whole map. *)

val is_identity : t -> bool
(** Whether the frame is the identity map with all-positive signs —
    i.e. the folded Clifford gates multiply to (a global phase times)
    the identity. *)
