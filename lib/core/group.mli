(** IR grouping (§IV-A): Pauli exponentiations are grouped by the exact
    set of qubits they act on non-trivially — the same blocking used by
    Paulihedral and Tetris.  Groups keep first-occurrence order and terms
    keep program order within a group. *)

type t = {
  n : int;
  terms : (Phoenix_pauli.Pauli_string.t * float) list;  (** program order *)
  support : Phoenix_util.Bitvec.t;
      (** the union of the terms' supports; never mutated *)
}

val weight : t -> int
(** Support size — the "width" used to pre-arrange groups. *)

val group_gadgets :
  ?exact:bool -> int -> (Phoenix_pauli.Pauli_string.t * float) list -> t list
(** Partition a gadget program into support-keyed groups.  Identity
    strings are dropped (they are global phases).

    With [~exact:true] the grouping is an exact program transformation:
    a gadget joins an earlier group with the same support only if it
    commutes with every term of every group in between, so merging never
    moves it past a non-commuting gadget.  The default greedy grouping
    merges all same-support gadgets regardless, which is only
    Trotter-equivalent. *)

val of_blocks :
  int -> (Phoenix_pauli.Pauli_string.t * float) list list -> t list
(** Adopt algorithm-level blocks (e.g. one UCCSD excitation per block)
    as IR groups directly; the support is the union support of the
    block.  Empty blocks and identity strings are dropped. *)

val of_terms : int -> (Phoenix_pauli.Pauli_string.t * float) list -> t
(** Adopt a term list as one group verbatim — terms are kept exactly as
    given (identity strings included), so baseline pipelines that
    partition a program themselves (e.g. into pairwise-commuting sets)
    can carry their partitions through the pass-manager context without
    perturbing them. *)

val all_commuting : t -> bool
(** Whether the group's terms pairwise commute (then any reordering of
    the group is exact, not merely Trotter-equivalent). *)
