(** Uniform drivers running each compiler on a workload at a given
    target/ISA, mirroring the paper's experimental settings: baselines
    compile logically (optionally with the O3-style peephole), get routed
    by SABRE, and are rebased to SU(4) when that ISA is selected; PHOENIX
    runs its integrated pipeline.  All of them dispatch through the
    pipeline registry ({!Phoenix_pipeline.Registry}), so every outcome
    is read off the same compile report. *)

type compiler = Naive | Tket | Paulihedral | Tetris | Phoenix_c

val compiler_name : compiler -> string

val entry : compiler -> Phoenix_pipeline.Registry.entry
(** The registry pipeline that compiles the column. *)

type isa = Cnot | Su4

type outcome = {
  counts : Metrics.counts;
  swaps : int;  (** 0 for logical compilation *)
  logical_two_q : int;  (** pre-routing 2Q count under the same ISA *)
}

val run_logical :
  ?o3:bool -> isa:isa -> compiler ->
  int -> (Phoenix_pauli.Pauli_string.t * float) list list ->
  outcome
(** [run_logical ~isa compiler n blocks] — all-to-all compilation.
    [o3] (default true) toggles the peephole stage where the paper
    evaluates ±O3 variants. *)

val run_hardware :
  ?o3:bool -> isa:isa -> Phoenix_topology.Topology.t -> compiler ->
  int -> (Phoenix_pauli.Pauli_string.t * float) list list ->
  outcome
(** Hardware-aware compilation: baselines are followed by SABRE routing
    and a post-routing peephole; PHOENIX uses its routing-aware
    ordering. *)
