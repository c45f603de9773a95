(** A validated compile request: one Hamiltonian, one registered
    pipeline, one target, one option set.

    Both front ends — the [phoenix] CLI and the serve daemon's
    [Handler] — resolve every Hamiltonian compile request through
    {!resolve}, so the topology-name table and register sizing, the
    pipeline lookup, the pipeline's requirement checks and the option
    record are written once.  Loading the Hamiltonian stays with each
    front end: the CLI reads files, while the daemon never dereferences
    client paths.  The CLI maps an [Error] to exit code 2, the daemon to
    status 2 (bad request). *)

type t = private {
  entry : Registry.entry;  (** the resolved pipeline *)
  hamiltonian : Phoenix_ham.Hamiltonian.t;
  options : Phoenix.Compiler.options;
      (** {!Phoenix.Compiler.default_options} overridden by the request's
          option values, with the target the topology name resolved
          to *)
}

val find_pipeline : string -> (Registry.entry, string) result
(** {!Registry.find}, with the rejection text {!resolve} uses. *)

val resolve :
  ?isa:Phoenix.Compiler.isa ->
  ?exact:bool ->
  ?verify:bool ->
  ?cache:Phoenix_cache.Cache.tier ->
  ?domains:int ->
  ?budget:Phoenix_util.Budget.t ->
  pipeline:string ->
  topology:string ->
  Phoenix_ham.Hamiltonian.t ->
  (t, string) result
(** Validate a request.  The topology names are ["all-to-all"],
    ["heavy-hex"] (the 64-qubit IBM Manhattan lattice), and ["line"],
    ["ring"] and ["grid"] sized to the Hamiltonian's register (at least
    2 and 3 qubits for line and ring, the smallest square grid that
    holds it).  Rejections, checked in this order: an unknown
    topology name, an unknown pipeline, a pipeline that
    [requires_topology] on an all-to-all target, and a [two_local_only]
    pipeline on a Hamiltonian with a term of weight above 2.  Omitted
    options keep their {!Phoenix.Compiler.default_options} values. *)

val topology : t -> Phoenix_topology.Topology.t option
(** The device the job compiles for; [None] for all-to-all. *)

val program : t -> Phoenix.Compiler.chunk
(** The gadget program the job's pipeline consumes
    ({!Registry.program} at the job's Trotter step).  Built on each
    call, so callers that only lint on request pay for it only then. *)

val lint_target :
  ?program:(Phoenix_pauli.Pauli_string.t * float) list ->
  t ->
  Phoenix.Compiler.report ->
  Phoenix_circuit.Circuit.t ->
  Phoenix_analysis.Circuit_lint.target
(** The lint target for [circuit] (the report's circuit, or one derived
    from it: bound, fault-injected) under the job's ISA, topology and
    exactness, with the report's declared metrics and layout.
    [program] is the gadget program to translation-validate against,
    on the job's register; without it that analysis stays silent. *)

val lint :
  ?program:(Phoenix_pauli.Pauli_string.t * float) list ->
  t ->
  Phoenix.Compiler.report ->
  Phoenix_circuit.Circuit.t ->
  Phoenix_analysis.Finding.t list
(** Post-compile lint findings: every registered circuit analysis over
    {!lint_target}, then {!Phoenix_analysis.Resilience_lint.conformance}
    of the report's degradations. *)
