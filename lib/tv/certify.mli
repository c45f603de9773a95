(** Certification driver: the [certify] pass-manager hook, the
    per-boundary check, and the [phoenix-cert-v1] artifact.

    Usage mirrors the lint hook: own a [boundary list ref], pass
    [Certify.hook acc] to {!Phoenix.Pass.run} (or any [compile*] /
    registry entry point taking [?hooks]), then read {!boundaries}.
    Each executed pass boundary contributes one record: the pass's
    claimed certificate, the verdict of the equivalence checker
    ({!Phoenix_verify.Checker}), and the wall-clock cost of both the
    pass and the check. *)

type boundary = {
  pass : string;
  claim : string;  (** {!Phoenix.Pass.certificate_label} of the claim *)
  verdict : Phoenix_verify.Checker.verdict;
  pass_seconds : float;
  check_seconds : float;
}

val check_boundary :
  claim:Phoenix.Pass.certificate ->
  before:Phoenix.Pass.ctx ->
  after:Phoenix.Pass.ctx ->
  Phoenix_verify.Checker.verdict
(** Audit one executed pass boundary against the pass's claim: abstract
    each context by the most-lowered representation it holds (circuit ≻
    blocks ≻ groups ≻ gadgets), then apply
    {!Phoenix_verify.Checker.check_claim}. *)

val schema_version : string
(** ["phoenix-cert-v1"]. *)

val hook : boundary list ref -> Phoenix.Pass.hook
(** Accumulates newest-first into the caller's ref (like the lint
    hook); {!boundaries} restores execution order. *)

val boundaries : boundary list ref -> boundary list

type summary = { proved : int; plausible : int; refuted : int }

val summarize : boundary list -> summary

val overall : boundary list -> string
(** ["proved"] iff every boundary proved (the relations compose to an
    end-to-end guarantee), otherwise ["refuted"] if any boundary was
    refuted, else ["plausible"]. *)

val all_proved : boundary list -> bool

val total_check_seconds : boundary list -> float

val boundary_to_string : boundary -> string
(** One aligned human-readable line per boundary. *)

val to_json :
  ?pipeline:string -> ?workload:string -> ?template:bool ->
  boundary list -> string
(** The [phoenix-cert-v1] document: summary (overall verdict + counts +
    checker seconds) and per-boundary records. *)
