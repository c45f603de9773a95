(** Structural circuit validation: cheap invariants every compiled
    circuit must satisfy regardless of semantics — qubit indices in
    range, two distinct operands per 2Q gate, SU(4) blocks confined to
    their pair, output gate alphabet matching the target ISA, and (after
    routing) a register that fits the device with every 2Q gate on a
    coupling-graph edge.

    This module is the one implementation of these rules: {!validate}
    renders the violations as [--verify] diagnostics, and the
    [isa-conformance] and [coupling-conformance] analyses
    ({!Phoenix_analysis.Circuit_lint}) render the same violations as
    findings. *)

type isa =
  | Cnot_basis  (** only [G1] and [Cnot] gates allowed *)
  | Su4_basis  (** only [G1] and [Su4] gates allowed *)
  | Any_basis  (** no alphabet restriction *)

type violation = {
  gate : int option;  (** index into the circuit's gate list, if any *)
  message : string;  (** what is wrong, without the gate index *)
}

val isa_violations : isa:isa -> Phoenix_circuit.Circuit.t -> violation list
(** Per gate, in circuit order: qubits outside the register, coincident
    2Q operands, SU(4) parts outside the block's pair, and gates outside
    the [isa] alphabet. *)

val coupling_violations :
  Phoenix_topology.Topology.t -> Phoenix_circuit.Circuit.t -> violation list
(** A register wider than the device (no gate index), then every 2Q gate
    on two in-range physical qubits that share no coupling edge. *)

val validate :
  ?isa:isa ->
  ?topology:Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  Diag.t list
(** Every violation of {!isa_violations} (for [isa], default
    [Any_basis]) and, with a [topology], {!coupling_violations} becomes
    an [Error] diagnostic under pass ["structural"], in circuit order,
    prefixed [gate #i] when it names a gate.  At most 20 violations are
    reported, with a summarizing diagnostic when more were found.  An
    empty list means the circuit is structurally valid. *)
