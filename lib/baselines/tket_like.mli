(** Simplified reimplementation of TKET's PauliSimp +
    FullPeepholeOptimise pipeline (Cowtan et al., "Phase Gadget Synthesis
    for Shallow Circuits").

    The gadget program is partitioned into pairwise-commuting sets; each
    set is simultaneously diagonalized by a Clifford conjugation and its
    diagonal part synthesized as phase ladders (sorted to expose ladder
    sharing); the peephole pass then plays the role of
    FullPeepholeOptimise. *)

val passes : Phoenix.Pass.t list
(** The pipeline: partition → synth → assemble → peephole, emitting the
    {H, S, S†, Rz, CNOT} basis. *)
