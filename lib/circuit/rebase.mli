(** SU(4) rebasing.

    [to_su4] fuses maximal runs of two-qubit operations on the same qubit
    pair — together with the 1Q gates trapped between them — into single
    [Su4] blocks, modelling the continuous SU(4) ISA of Chen et al. (each
    block is one native 2Q instruction).  The CNOT ISA is reached with
    {!Lowering.run} [[Rebase]]. *)

val to_su4 : Circuit.t -> Circuit.t
(** Fuse into [Su4] blocks.  Every 2Q gate of the result is an [Su4];
    1Q gates that could not be absorbed remain standalone (they are free
    under the paper's metrics). *)

val count_su4 : Circuit.t -> int
(** [#SU(4)] = 2Q gate count after fusion. *)
