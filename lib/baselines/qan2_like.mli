(** Simplified reimplementation of 2QAN (Lao & Browne, ISCA 2022): a
    router specialized to 2-local Hamiltonian-simulation programs.

    All gadgets must have weight ≤ 2 and are treated as freely
    reorderable (each Trotter step of a 2-local Hamiltonian — e.g. a QAOA
    cost layer — is a product of commuting exponentials).  The compiler
    places qubits by interaction-weighted greedy embedding, then
    alternates between emitting every currently-executable interaction
    and inserting the SWAP that most reduces the remaining interaction
    distance; SWAPs landing next to an interaction on the same pair are
    merged by the peephole into the 3-CNOT fused block that is 2QAN's
    signature saving. *)

val passes : Phoenix.Pass.t list
(** The pipeline: place → route → lower → peephole, emitting a physical
    CNOT-basis circuit.  Requires a [Hardware] target in the context
    options.  Raises [Invalid_argument] on gadgets of weight > 2, on a
    device smaller than the register and on a disconnected coupling
    graph. *)

val place :
  Phoenix_topology.Topology.t ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix_router.Layout.t
(** The greedy interaction-aware initial placement, exposed for tests. *)
