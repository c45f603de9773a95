(** Simplified reimplementation of Paulihedral (Li et al., ASPLOS 2022):
    block-wise synthesis over the same support-keyed IR blocks PHOENIX
    uses.

    Blocks are chained greedily by support overlap; terms within a block
    are ordered lexicographically and lowered through CNOT ladders with a
    consistent root so that neighbouring gadgets expose tree-sharing
    cancellations, which the peephole pass (standing in for the Qiskit O2
    that Paulihedral pairs with) then harvests. *)

val passes : Phoenix.Pass.t list
(** The pipeline: group → order → synth → assemble → peephole.  The
    group pass adopts the context's algorithm-level blocks when it
    carries them (one per Trotter term, as the real Paulihedral frontend
    consumes) and groups by support otherwise. *)

val order_blocks : Phoenix.Group.t list -> Phoenix.Group.t list
(** Greedy max-overlap chaining, exposed for testing. *)
