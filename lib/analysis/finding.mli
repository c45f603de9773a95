(** Static-analysis findings.

    The analysis layer's common currency: one finding per fact an
    analysis establishes about a compiled artifact (or about the
    compiler's own state).  The severity scale is shared with the
    dynamic-verification diagnostics ({!Phoenix_verify.Diag}) so CLI
    front ends can merge both streams: [Error] means the artifact is
    wrong or unusable, [Warning] flags suspicious-but-valid facts
    (including the missed-optimization lint class), [Info] records
    positive certifications.  Findings carry a structured location and
    render both human-readably and as JSON. *)

type severity = Phoenix_verify.Diag.severity = Info | Warning | Error

type location =
  | Global
  | Gate of int  (** index into the circuit's gate list *)
  | Qubit of int
  | Group of int  (** IR group index *)

type t = {
  analysis : string;  (** registry name of the emitting analysis *)
  severity : severity;
  location : location;
  message : string;
}

val make : ?location:location -> analysis:string -> severity -> string -> t
(** [location] defaults to [Global]. *)

val makef :
  ?location:location ->
  analysis:string ->
  severity ->
  ('a, unit, string, t) format4 ->
  'a

val error :
  ?location:location -> analysis:string -> ('a, unit, string, t) format4 -> 'a

val warning :
  ?location:location -> analysis:string -> ('a, unit, string, t) format4 -> 'a

val info :
  ?location:location -> analysis:string -> ('a, unit, string, t) format4 -> 'a

val location_to_string : location -> string

val to_string : t -> string
(** One-line rendering: [[severity] analysis(location): message]. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Phoenix_util.Json.t
(** Machine-readable rendering: one object with ["analysis"],
    ["severity"], ["location"] (a ["kind"] plus an ["index"] unless
    global) and ["message"] — the element of [analyze --json], [cache
    audit --json] and a serve response's ["findings"]. *)

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool
val count : severity -> t list -> int

val summary : t list -> string
(** e.g. ["1 error, 2 warnings, 3 notes"]. *)
