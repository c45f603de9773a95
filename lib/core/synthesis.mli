(** Lowering a simplified configuration to circuit IR.

    The emitted circuit stays ISA-abstract: Clifford2Q conjugations are
    [Cliff2] gates and two-qubit Pauli rotations are [Rpp] gates.  The
    CNOT ISA is reached with {!Phoenix_circuit.Lowering}'s rebase; the
    SU(4) ISA with {!Phoenix_circuit.Rebase.to_su4}, which fuses each
    group's Clifford sandwich and core into native 2Q blocks. *)

val rotation_gates :
  (Phoenix_pauli.Pauli_string.t * float) list -> Phoenix_circuit.Gate.t list
(** 1Q/2Q gates for a list of weight ≤ 2 gadgets (identity entries are
    global phases and are dropped).
    Raises [Invalid_argument] on weight > 2 strings. *)

val cfg_to_circuit :
  ?compress:bool -> int -> Simplify.t -> Phoenix_circuit.Circuit.t
(** Lower one simplified IR group over an [n]-qubit register.
    [compress] (default true) enables core compression: a core of ≥ 3
    commuting rotations is simultaneously diagonalized when that lowers
    its CNOT cost, and its diagonal terms are lowered in
    {!Phoenix_pauli.Pauli_string.compare} order of their [n]-qubit
    strings. *)

val group_circuit :
  ?exact:bool -> ?compress:bool -> Group.t -> Phoenix_circuit.Circuit.t
(** Simplify and lower one IR group on its whole register.  Compressed
    cores are sorted on register strings, so this equals the embedded
    {!support_circuit} when the group's support lies in one
    {!Phoenix_util.Bitvec} word (a monotone relabel inside a word keeps
    [compare] order), but not always when it straddles a word
    boundary. *)

val support_circuit :
  ?exact:bool ->
  ?memo:Phoenix_pauli.Bsf.Delta.memo ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix_circuit.Circuit.t
(** [support_circuit k terms] simplifies and lowers one IR group
    relabelled onto its support: the [terms] act on its [k] local
    qubits.  The circuit depends on the local terms alone, not on
    where the support sits in the register, so a cached entry replays
    onto any support.  The cost follows k, not the register.  [memo]
    is {!Simplify.run}'s. *)

val naive_gadget_circuit :
  ?chain:[ `Support_order | `Z_first ] ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix_circuit.Circuit.t
(** Per-gadget synthesis by basis conjugation around a CNOT ladder
    (Fig. 1(a) style).  [`Support_order] (default) chains qubits in index
    order — the unoptimized "original circuit" of the paper's Table I.
    [`Z_first] chains Z-basis qubits first so that gadgets sharing a
    Z-chain expose their chain CNOTs at the gadget boundary for
    cancellation — the tree-shaping trick of Paulihedral-style
    compilers. *)
