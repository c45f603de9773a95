(** The [phoenix-serve-v1] wire protocol.

    Newline-delimited JSON both ways: each request line is one JSON
    object with an ["op"] (["compile"], ["stats"], ["ping"]) and an
    ["id"] the response echoes verbatim; each response line is one JSON
    object with the schema tag, the echoed id, and a numeric ["status"]
    mirroring the CLI exit-code contract:

    {v
    0  ok
    1  failed closed (a pass failed, or the job was cancelled)
    2  bad request (malformed JSON, unknown pipeline/workload/field)
    3  verification errors ("verify": true)
    4  lint errors ("lint": true)
    5  deadline exceeded with no fallback rung
    6  overloaded (job queue full) or draining (SIGTERM received)
    v}

    Responses are written as jobs complete, so they arrive in
    {e completion} order, not request order — clients match on ["id"].
    The test battery's ordering-independence property quantifies over
    exactly this freedom. *)

module Json = Json

val schema : string
(** ["phoenix-serve-v1"]. *)

val stats_schema : string
(** ["phoenix-serve-stats-v1"]. *)

(** {1 Status codes} *)

type status =
  | Sok
  | Sfailed
  | Sbad_request
  | Sverify_errors
  | Slint_errors
  | Sdeadline
  | Soverloaded

val status_code : status -> int
val status_name : status -> string

(** {1 Requests} *)

type source =
  | Builtin of string  (** builtin workload specifier, see {!Workload} *)
  | Inline of string  (** inline [coeff pauli-string] Hamiltonian lines *)
  | Qasm of string  (** OpenQASM 2.0 text: parse + peephole + report *)

type compile_spec = {
  source : source;
  pipeline : string;
  isa : Phoenix.Compiler.isa;
  topology : string;
  exact : bool;
  verify : bool;
  lint : bool;
  timeout_s : float option;  (** wall-clock budget for this job *)
  budget_checks : int option;
      (** deterministic testing budget ({!Phoenix_util.Budget.after_checks});
          takes precedence over [timeout_s] so differential tests see
          time-independent deadline behaviour *)
  cache : Phoenix_cache.Cache.tier;  (** default [Mem]: shared across jobs *)
  domains : int;
      (** synthesis domains {e within} the job (default 1: concurrency
          comes from the worker pool, not nested pools) *)
  template : bool;
  binds : float array list;  (** parameter vectors to bind, in order *)
  dump : bool;  (** include the gate text in the response (default) *)
}

type request =
  | Compile of { id : Json.t; spec : compile_spec }
  | Stats of { id : Json.t }
  | Ping of { id : Json.t }

val parse_request : string -> (request, Json.t * string) result
(** Parse one request line.  [Error (id, msg)] carries the request id
    when one could be recovered ([Json.Null] otherwise) so the error
    response still correlates. *)

(** {1 Responses} *)

val error_response : id:Json.t -> status:status -> string -> Json.t
(** A failure frame: echoed id, status, and a structured
    [Diag]-taxonomy error object ([pass:"serve"], severity, message). *)

val circuit_digest : Phoenix_circuit.Circuit.t -> string
(** Hex digest of the gate list marshalled without sharing — equal
    exactly when the circuits are bit-identical (same gates, same float
    bits).  The soak battery compares daemon responses to serial
    compiles through this. *)

val circuit_json : dump:bool -> Phoenix_circuit.Circuit.t -> Json.t
val diag_json : Phoenix_verify.Diag.t -> Json.t

val report_json : Phoenix.Compiler.report -> Json.t
(** The common compiler report: metrics, per-pass trace (seconds +
    metric deltas), diagnostics, cache-counter deltas
    ({!Phoenix_cache.Cache.stats_json}), degradations.  A response's
    findings are {!Phoenix_analysis.Finding.to_json} objects.
    Wall-clock fields are informational; the differential tests compare
    only the semantic subset (status, circuit digest, diagnostics,
    degradations, metrics). *)

val ok_response :
  id:Json.t ->
  status:status ->
  ?error:string ->
  (string * Json.t) list ->
  Json.t
(** Assemble a response frame: schema, id, status fields, then the
    payload fields, then (when [error] is given) the structured error
    object. *)
