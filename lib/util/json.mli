(** Minimal JSON: the serve wire protocol and every JSON artifact the
    CLI writes.

    The repo depends on no JSON library, so this module implements the
    subset it needs: the full JSON value grammar, strict parsing with
    positioned errors, and deterministic one-line printing (objects
    keep insertion order; floats render round-trippably).  Every
    artifact is built as a {!t} by the module that owns its record and
    printed by {!to_string}.

    Not a general-purpose library: no streaming, no number preservation
    beyond IEEE doubles, no Unicode validation beyond byte-transparent
    strings ([\uXXXX] escapes decode to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error.  The
    error string carries a byte offset. *)

val to_string : t -> string
(** One-line rendering (no newlines anywhere, so a rendered value is a
    valid NDJSON frame).  Integral floats in the int range print without
    a decimal point; other floats print with ["%.17g"] so they
    round-trip bit-for-bit. *)

(** {1 Accessors}

    All return [None] (or the default) on shape mismatches — protocol
    handlers turn those into structured error responses, never
    exceptions. *)

val mem : string -> t -> t option
(** Object field lookup ([None] on non-objects too). *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** [num] truncated; [None] when not integral or out of int range. *)

val bool : t -> bool option
val arr : t -> t list option

val str_field : ?default:string -> string -> t -> string option
(** [str_field k o] is the string at key [k]; [default] applies when
    the key is absent (but not when it holds a non-string). *)

val bool_field : default:bool -> string -> t -> bool option

val escape : string -> string
(** The quoted, escaped rendering of a string, exactly as {!to_string}
    renders a [Str].  For writers outside the library that lay out
    their own text around a JSON string. *)
