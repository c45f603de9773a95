(** Simulation-free circuit analyses.

    Every analysis takes a {!target} — the compiled circuit plus
    whatever machine context is known (ISA, coupling map, the metrics
    the compiler declared for it) — and returns findings.  All run in
    time polynomial in the gate count with no unitary or state-vector
    construction, so they are cheap enough for CI over every workload
    and every baseline compiler. *)

type isa = Phoenix_verify.Structural.isa = Cnot_basis | Su4_basis | Any_basis

type declared = { two_q : int; depth_2q : int; one_q : int }
(** The metrics a compiler reported for the circuit, to be certified
    against recomputation. *)

type target = {
  circuit : Phoenix_circuit.Circuit.t;
  isa : isa;
  topology : Phoenix_topology.Topology.t option;
      (** coupling map for routed circuits; [None] for logical ones *)
  declared : declared option;
  program : (int * (Phoenix_pauli.Pauli_string.t * float) list) option;
      (** the register size and gadget program the circuit was compiled
          from, when the caller still has it — enables
          {!translation_validation} *)
  exact : bool;
      (** the compile ran in exact (sequence-preserving) mode, so the
          checker may demand the stronger sequence relation *)
  layout : Phoenix_router.Layout.t option;
      (** final logical→physical placement of a routed compile, used to
          relabel the circuit back onto the program's register *)
}

val target :
  ?isa:isa ->
  ?topology:Phoenix_topology.Topology.t ->
  ?declared:declared ->
  ?program:int * (Phoenix_pauli.Pauli_string.t * float) list ->
  ?exact:bool ->
  ?layout:Phoenix_router.Layout.t ->
  Phoenix_circuit.Circuit.t ->
  target
(** [isa] defaults to [Any_basis], [exact] to [false]; the remaining
    context is optional and analyses needing it return no findings when
    it is absent. *)

val liveness : target -> Finding.t list
(** Dangling-wire detection: qubits declared by a logical circuit but
    touched by no gate ([Warning] each).  Skipped on hardware targets,
    where idle physical qubits are expected. *)

val isa_conformance : target -> Finding.t list
(** Gate-alphabet membership for the target ISA, qubit-range checks,
    coincident 2Q operands, and SU(4)-block well-formedness (parts
    confined to the block's pair).  All [Error]. *)

val coupling_conformance : target -> Finding.t list
(** Every 2Q gate of a routed circuit must lie on a coupling-graph edge,
    and the circuit must fit the device.  [Error] each; empty when the
    target has no topology. *)

val metrics_certification : target -> Finding.t list
(** Declared 2Q count / 2Q depth / 1Q count versus recomputation from
    the gate list ([Error] on mismatch); empty when nothing was
    declared. *)

val layer_consistency : target -> Finding.t list
(** Audit of {!Phoenix_circuit.Circuit.layers_2q}: layers partition the
    2Q gates, never reuse a qubit within a layer, count exactly the 2Q
    depth, and preserve per-qubit program order.  [Error] each. *)

val angle_sanity : target -> Finding.t list
(** NaN/inf rotation angles ([Error]); zero-angle rotations and
    non-canonical angles the peephole should have folded ([Warning] —
    the missed-optimization lint class).  Recurses into SU(4) blocks.
    Unbound template slots are hard errors, named by first-use rank
    ([S0], [S1], ... — stable across runs, unlike arena ids) with one
    finding per distinct slot plus a global summary giving the distinct
    and site counts and each slot's first-use gate index. *)

val translation_validation : target -> Finding.t list
(** Symbolic end-to-end translation validation
    ({!Phoenix_verify.Checker.check_program}): does the circuit implement
    the target's [program] in the frame × phase-polynomial domain?
    [Info] when proved, [Warning] when the checker is out of its domain
    (never a silent accept), [Error] with a counterexample description
    when refuted.  Routed circuits are relabeled through [layout];
    [exact] selects the sequence relation.  Empty when the target
    carries no program. *)
