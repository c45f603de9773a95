(** Hamiltonians as weighted Pauli-string sums, and their Trotterization
    into gadget programs.

    Convention: a first-order Trotter step of duration [tau] turns each
    term [h_j·P_j] into the gadget [exp(-i·h_j·τ·P_j)], i.e. a gadget
    angle [θ_j = 2·h_j·τ]. *)

type t

val make : int -> Phoenix_pauli.Pauli_term.t list -> t
(** [make n terms]: every term must act on [n] qubits and be non-identity.
    Raises [Invalid_argument] otherwise. *)

val make_blocks : int -> Phoenix_pauli.Pauli_term.t list list -> t
(** Like [make], but records algorithm-level block structure (e.g. one
    block per UCCSD excitation operator).  Block-based compilers group by
    these blocks instead of re-deriving groups from supports. *)

val term_blocks : t -> Phoenix_pauli.Pauli_term.t list list option
(** The recorded block structure, if the Hamiltonian was built with
    [make_blocks]. *)

val num_qubits : t -> int
val terms : t -> Phoenix_pauli.Pauli_term.t list
val num_terms : t -> int

val max_weight : t -> int
(** Largest Pauli weight among terms ([w_max] of Table I). *)

val scale : float -> t -> t
(** Multiply every coefficient. *)

val trotter_gadgets :
  ?tau:float -> t -> (Phoenix_pauli.Pauli_string.t * float) list
(** First-order Trotter step: gadget list [(P_j, 2·h_j·τ)] in term order
    ([tau] defaults to 1). *)

val gadget_blocks :
  ?tau:float -> t -> (Phoenix_pauli.Pauli_string.t * float) list list option
(** The recorded {!term_blocks} as gadget blocks, each term mapped to
    [(P_j, 2·h_j·τ)] exactly as {!trotter_gadgets} maps it ([tau]
    defaults to 1, and [2·h·1 = 2·h] exactly); [None] when the
    Hamiltonian records no blocks. *)

val trotter_gadgets_order2 :
  ?tau:float -> t -> (Phoenix_pauli.Pauli_string.t * float) list
(** Second-order (symmetric) Trotter step
    [S₂ = Π_j e^{-i h_j τ/2 P_j} · Π_{j reversed} e^{-i h_j τ/2 P_j}]:
    forward half-angle sweep followed by the reversed sweep. *)

val to_lines : t -> string list
(** One ["<coeff> <pauli-string>"] line per term. *)

val of_lines : string list -> t
(** Inverse of [to_lines]; blank lines and [#] comments are skipped.
    Raises [Invalid_argument] on malformed input. *)

val pp : Format.formatter -> t -> unit
