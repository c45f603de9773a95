(** Fermionic ladder operators under qubit encodings.

    Both the Jordan–Wigner and the Bravyi–Kitaev transformations are
    implemented from scratch; the Bravyi–Kitaev index sets are derived
    from the Fenwick-tree construction of Seeley, Richard and Love (2012).
    Correctness is established by the canonical anticommutation relations
    in the test suite. *)

type encoding = Jordan_wigner | Bravyi_kitaev

val encoding_to_string : encoding -> string

val creation : encoding -> int -> int -> Pauli_sum.t
(** [creation enc n j] is [a†_j] over [n] modes.
    Raises [Invalid_argument] when [j] is out of range. *)

val annihilation : encoding -> int -> int -> Pauli_sum.t
(** [a_j]. *)

val number_operator : encoding -> int -> int -> Pauli_sum.t
(** [a†_j · a_j]. *)

val excitation_single : encoding -> int -> p:int -> q:int -> Pauli_sum.t
(** The Hermitian generator [i(a†_p a_q − a†_q a_p)] of a single
    excitation ([p ≠ q]). *)

val excitation_double :
  encoding -> int -> p:int -> q:int -> r:int -> s:int -> Pauli_sum.t
(** The Hermitian generator [i(a†_p a†_q a_r a_s − h.c.)] of a double
    excitation; the four modes must be distinct. *)

(** {1 Bravyi–Kitaev index sets} (exposed for testing) *)

val bk_update_set : int -> int -> int list
val bk_parity_set : int -> int -> int list
val bk_flip_set : int -> int -> int list
val bk_remainder_set : int -> int -> int list
(** [bk_*_set n j]: the U/P/F/R sets of mode [j] over [n] modes. *)
