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
  ?compress:bool ->
  ?sites:int array ->
  int ->
  Simplify.t ->
  Phoenix_circuit.Circuit.t
(** Lower one simplified IR group over an [n]-qubit register.
    [compress] (default true) enables core compression: a core of ≥ 3
    commuting rotations is simultaneously diagonalized when that lowers
    its CNOT cost, and its diagonal terms are lowered in
    {!Phoenix_pauli.Pauli_string.compare} order — of their images at
    [sites] ({!Phoenix_pauli.Pauli_string.compare_on_sites}) when the
    [n] qubits stand for the register qubits [sites]. *)

val group_circuit :
  ?exact:bool -> ?compress:bool -> Group.t -> Phoenix_circuit.Circuit.t
(** Simplify and lower one IR group on its whole register. *)

val support_circuit :
  ?exact:bool ->
  ?memo:Phoenix_pauli.Bsf.Delta.memo ->
  sites:int array ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix_circuit.Circuit.t
(** Simplify and lower one IR group relabelled onto its support: the
    [terms] act on [k = Array.length sites] qubits, local qubit [i]
    standing for register qubit [sites.(i)] (strictly ascending).  The
    k-qubit circuit, with each qubit [i] mapped to [sites.(i)], is the
    {!group_circuit} of the register-wide group: the BSF search is
    equivariant under an order-preserving relabel, and compressed cores
    keep the register-wide order.  The cost follows k, not the
    register.  [memo] is {!Simplify.run}'s. *)

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
