module Diag = Phoenix_verify.Diag
module Json = Phoenix_util.Json

type severity = Diag.severity = Info | Warning | Error

type location =
  | Global
  | Gate of int
  | Qubit of int
  | Group of int

type t = {
  analysis : string;
  severity : severity;
  location : location;
  message : string;
}

let make ?(location = Global) ~analysis severity message =
  { analysis; severity; location; message }

let makef ?location ~analysis severity fmt =
  Printf.ksprintf (make ?location ~analysis severity) fmt

let error ?location ~analysis fmt = makef ?location ~analysis Error fmt
let warning ?location ~analysis fmt = makef ?location ~analysis Warning fmt
let info ?location ~analysis fmt = makef ?location ~analysis Info fmt

let location_to_string = function
  | Global -> ""
  | Gate i -> Printf.sprintf "gate #%d" i
  | Qubit q -> Printf.sprintf "qubit %d" q
  | Group g -> Printf.sprintf "group %d" g

let to_string f =
  let where =
    match location_to_string f.location with
    | "" -> f.analysis
    | loc -> Printf.sprintf "%s(%s)" f.analysis loc
  in
  Printf.sprintf "[%s] %s: %s" (Diag.severity_to_string f.severity) where
    f.message

let pp fmt f = Format.pp_print_string fmt (to_string f)

let location_json loc =
  let indexed kind i =
    Json.Obj [ ("kind", Json.Str kind); ("index", Json.Num (Float.of_int i)) ]
  in
  match loc with
  | Global -> Json.Obj [ ("kind", Json.Str "global") ]
  | Gate i -> indexed "gate" i
  | Qubit q -> indexed "qubit" q
  | Group g -> indexed "group" g

let to_json f =
  Json.Obj
    [
      ("analysis", Json.Str f.analysis);
      ("severity", Json.Str (Diag.severity_to_string f.severity));
      ("location", location_json f.location);
      ("message", Json.Str f.message);
    ]

let errors fs = List.filter (fun f -> f.severity = Error) fs
let warnings fs = List.filter (fun f -> f.severity = Warning) fs
let has_errors fs = List.exists (fun f -> f.severity = Error) fs

let count sev fs = List.length (List.filter (fun f -> f.severity = sev) fs)

let summary fs =
  let part what n = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  Printf.sprintf "%s, %s, %s"
    (part "error" (count Error fs))
    (part "warning" (count Warning fs))
    (part "note" (count Info fs))
