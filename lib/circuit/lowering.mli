(** The lowering engine: peephole optimization, CNOT rebase and phase
    folding, run in place on one flat gate buffer.

    A call loads the circuit once into a struct-of-arrays buffer (one int
    per gate for its kind and qubits, one float for its angle), runs the
    requested stages on it in order, and builds a {!Circuit.t} once at
    the end — or only counts.  The buffer is sized once, to the rebase
    expansion of the input plus one slot per [Y], which every stage
    sequence fits.  Each call allocates its own buffer and keeps nothing,
    so the synthesis pool and the daemon's workers may call it
    concurrently.  DESIGN §2.16 describes the layout.

    {b Stages.}
    - [Peephole] (the repository's stand-in for Qiskit O3) applies,
      in forward passes until a pass leaves the length unchanged (at most
      20 passes):
      - inverse-pair cancellation of self-inverse gates (H·H, CNOT·CNOT,
        SWAP·SWAP, identical Clifford2Q pairs);
      - merging of same-axis 1Q rotations, with the diagonal Cliffords
        (S, S†, Z, T, T†) absorbed into Rz and X, Y into Rx, Ry — exact
        up to global phase, which none of the reported metrics observe;
        the merged rotation takes the later gate's position;
      - merging of identical-axis 2Q Pauli rotations ([Rpp]);
      - commutation-aware cancellation: a CNOT commutes backwards past
        Z-axis gates on its control and X-axis gates on its target
        (including CNOTs sharing that control or target) to meet and
        annihilate an identical CNOT;
      - removal of rotations with angle ≡ 0 (mod 4π); a symbolic slot is
        never removed.
    - [Rebase] lowers every gate to the {H, S, S†, 1Q rotations, CNOT}
      alphabet: [Cliff2] to 1 CNOT and local Cliffords, [Rpp] to 2 CNOTs
      around an Rz with basis conjugation, [Swap] to 3 CNOTs, [Su4] to
      its parts, recursively.  An [Rpp] with an identity Pauli raises
      [Invalid_argument "Rebase.to_z_basis: identity"].
    - [Fold] is Amy-style phase folding.  In a {CNOT, X, SWAP,
      diagonal-1Q} region every wire carries a parity (an XOR of wire
      variables), and a diagonal rotation contributes a phase that depends
      only on that parity and the wire's X-negation — so rotations on
      equal parities merge even when far apart and on different qubits:
      {v  Rz(a) q1;  CNOT q0 q1;  Rz(b) q1;  CNOT q0 q1;  Rz(c) q1  v}
      folds [a] and [c] into one rotation, placed at the first
      occurrence.  H, Rx, Ry and non-CNOT 2Q gates are barriers: their
      qubits get fresh variables.  Z, S, S†, T, T† fold as Rz angles and
      a Y as a π phase followed by an X.  A phase that sums to a known
      zero is dropped.

    Every stage preserves the circuit unitary up to global phase, and
    none increases the CNOT cost ({!Circuit.count_cnot}).  The output is
    gate-for-gate the one the historical list implementations produced
    (kept as the test reference), symbolic slots included. *)

type stage = Peephole | Rebase | Fold

val run : stage list -> Circuit.t -> Circuit.t
(** [run stages c] applies [stages] to [c] in order.  The CNOT-ISA back
    end is [[Peephole; Rebase; Fold; Peephole]]. *)

val count_2q : stage list -> Circuit.t -> int
(** [Circuit.count_2q (run stages c)], counted on the buffer without
    building the circuit. *)

val count_cnot : stage list -> Circuit.t -> int
(** [Circuit.count_cnot (run stages c)], counted on the buffer without
    building the circuit. *)

val normalize_angle : float -> float
(** Reduce a constant into [(-2π, 2π]] modulo the 4π period of
    [exp(-iθ/2 P)]; symbolic slots are returned unchanged. *)

val is_zero_angle : float -> bool
(** Whether a rotation by the angle is the identity (within [1e-10],
    modulo 4π).  Never true for a symbolic slot. *)
