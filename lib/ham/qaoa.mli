(** QAOA programs over graphs.

    The compilation benchmarks only involve the 2-local cost layer (the
    mixer is 1Q and free under the paper's metrics); the full alternating
    ansatz is provided for the examples. *)

val maxcut_cost : ?gamma:float -> Graphs.t -> Hamiltonian.t
(** One [γ/2 · Z_i Z_j] term per edge (the constant part of the MaxCut
    objective is dropped). *)

val ansatz : ?seed:int -> layers:int -> Graphs.t -> Hamiltonian.t
(** [p]-layer QAOA term sequence: for each layer, all cost [ZZ] terms with
    angle γ_l followed by all mixer [X] terms with angle β_l; the angles
    are seeded synthetic parameters. *)

val graph_of_label : string -> Graphs.t option
(** The seeded graph one suite label names — any label of
    {!benchmark_suite} or {!scaling_suite} — built on its own; [None] for
    any other string.  Both suites are derived from it. *)

val benchmark_suite :
  unit -> (string * Graphs.t) list
(** The six graphs of the paper's Table IV: Rand-16/20/24 (4-regular
    random) and Reg3-16/20/24 (3-regular random), seeded. *)

val scaling_suite : unit -> (string * Graphs.t) list
(** Large seeded 3-regular graphs — Reg3-100/250/500/1000 — for the
    streaming-compiler scaling benchmarks. *)
