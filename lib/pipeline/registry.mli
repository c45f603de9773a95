(** The pipeline registry: every compiler in this repo — PHOENIX and the
    five baselines — as a named {!Phoenix.Pass} pipeline over the shared
    compilation context, all returning the common
    {!Phoenix.Compiler.report}.

    The CLI and the serve daemon look pipelines up through {!Job.resolve}
    (which uses {!find}), the experiment drivers compile through
    {!compile_blocks}, and
    [phoenix passes] prints {!catalog} — so adding a pipeline here
    surfaces it everywhere at once. *)

type entry = {
  name : string;  (** stable CLI identifier ("phoenix", "tket", ...) *)
  description : string;  (** one line, shown by [phoenix passes] *)
  passes : Phoenix.Compiler.options -> Phoenix.Pass.t list;
      (** the pipeline for the given options; option-dependent stages
          (routing, verification, exact-mode ordering) appear or
          disappear accordingly *)
  requires_topology : bool;  (** 2QAN: refuses logical targets *)
  two_local_only : bool;  (** 2QAN: refuses weight > 2 gadgets *)
  uses_blocks : bool;
      (** adopt algorithm-level term blocks as IR groups when the
          Hamiltonian records them (PHOENIX does; the baselines consume
          the flat Trotter gadget program, as their references do) *)
}

val all : entry list
(** Registry order is the CLI listing order. *)

val find : string -> entry option

val names : unit -> string list

val program :
  ?tau:float -> entry -> Phoenix_ham.Hamiltonian.t -> Phoenix.Compiler.chunk
(** The gadget program [entry] compiles for a Hamiltonian (Trotter step
    [tau], default 1): its τ-scaled term blocks
    ({!Phoenix_ham.Hamiltonian.gadget_blocks}) when the entry
    [uses_blocks] and the Hamiltonian records blocks, the flat
    {!Phoenix_ham.Hamiltonian.trotter_gadgets} program otherwise.
    {!compile} and {!compile_stream} compile exactly this program, so
    analyses that check a circuit against "what was compiled" read it
    here rather than re-deriving it. *)

val compile :
  ?options:Phoenix.Compiler.options ->
  ?protect:bool ->
  ?hooks:Phoenix.Pass.hook list ->
  entry ->
  Phoenix_ham.Hamiltonian.t ->
  Phoenix.Compiler.report
(** Compile a Hamiltonian through a registered pipeline: {!program} at
    [options.tau], run through [entry.passes] with
    {!Phoenix.Compiler.run_passes}; [hooks] fire at every pass boundary.  [protect] (here and
    below) is {!Phoenix.Pass.run}'s fail-closed mode: unexpected
    exceptions re-raise as {!Phoenix.Pass.Failed} with the pass named. *)

val compile_gadgets :
  ?options:Phoenix.Compiler.options ->
  ?protect:bool ->
  ?hooks:Phoenix.Pass.hook list ->
  entry ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list ->
  Phoenix.Compiler.report
(** Compile an explicit gadget program over [n] qubits. *)

val compile_blocks :
  ?options:Phoenix.Compiler.options ->
  ?protect:bool ->
  ?hooks:Phoenix.Pass.hook list ->
  entry ->
  int ->
  (Phoenix_pauli.Pauli_string.t * float) list list ->
  Phoenix.Compiler.report
(** Compile with caller-supplied algorithm-level blocks.  Pipelines that
    don't consume block structure (tket, 2qan, naive) see the flattened
    program. *)

val compile_stream :
  ?options:Phoenix.Compiler.options ->
  ?protect:bool ->
  ?hooks:Phoenix.Pass.hook list ->
  ?keep_circuit:bool ->
  ?emit:(Phoenix_circuit.Circuit.t -> unit) ->
  steps:int ->
  entry ->
  Phoenix_ham.Hamiltonian.t ->
  Phoenix.Compiler.stream_report
(** Streaming compile: [steps] first-order Trotter steps of the
    Hamiltonian fed to {!Phoenix.Compiler.compile_stream} one chunk per
    step, through this entry's pass list — so baselines stream too.
    Each chunk is {!program}, exactly as {!compile} consumes it; a one-step
    stream is bit-identical to {!compile} at the same options (logical
    targets only — streaming raises [Invalid_argument] on hardware
    targets, see {!Phoenix.Compiler.compile_stream}). *)

val compile_template :
  ?options:Phoenix.Compiler.options ->
  ?protect:bool ->
  ?hooks:Phoenix.Pass.hook list ->
  ?certified:bool ->
  entry ->
  Phoenix_ham.Hamiltonian.t ->
  (Phoenix.Compiler.template, string) result
(** Parametric compile: one template parameter ["theta<k>"] per
    algorithm-level block (or per Trotter gadget when the Hamiltonian
    records none), scaling that block's tau-scaled base angles.  Binding
    every parameter to [1.0] reproduces {!compile} at the same options
    bit-identically.  [Error] for pipelines without block-structured IR
    (every baseline — only the canonical phoenix pipeline compiles
    symbolic angles).  Don't attach boundary-lint hooks here: the
    intermediate circuits carry slot angles, which the angle-sanity lint
    correctly reports as errors on {e bound} circuits.  [certified]
    (default [false]) declares that a symbolic certify hook
    ({!Hooks.certify}) rides along, replacing the dense-verification
    deferral diagnostic — see {!Phoenix.Compiler.compile_template}. *)

(** {1 Pass catalog} *)

type catalog_entry = {
  pass_name : string;
  pass_description : string;
  pipelines : string list;  (** registry names of the pipelines using it *)
}

val catalog : unit -> catalog_entry list
(** Every distinct pass across all registered pipelines (keyed by name
    and description), in first-appearance order, with the pipelines that
    use it.  Computed under representative options — hardware target,
    verification on — so option-gated stages are included. *)
