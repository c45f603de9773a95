(** Simplified reimplementation of Tetris (Jin et al., ISCA 2024).

    Tetris keeps Paulihedral's block structure but orders blocks to
    maximize immediate gate cancellation at block boundaries — matching
    Pauli bases on shared qubits — because its main lever is CNOT/SWAP
    co-optimization during routing.  This reimplementation scores
    boundary compatibility between the last gadget of the previous block
    and the first gadget of the candidate, and hands routing to the
    shared SABRE router. *)

val passes : Phoenix.Pass.t list
(** The pipeline: group → order → synth → assemble → peephole.  The
    group pass adopts the context's algorithm-level blocks when it
    carries them (one per Trotter term, as the real Tetris frontend
    consumes) and groups by support otherwise. *)

val boundary_score :
  Phoenix_pauli.Pauli_string.t -> Phoenix_pauli.Pauli_string.t -> float
(** Cancellation-compatibility estimate between two adjacent gadgets. *)
