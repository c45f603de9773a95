module Diag = Phoenix_verify.Diag
module Json = Phoenix_util.Json

type severity = Diag.severity = Info | Warning | Error

type location =
  | Global
  | Gate of int
  | Qubit of int
  | Row of int
  | Column of int
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
  | Row i -> Printf.sprintf "row %d" i
  | Column q -> Printf.sprintf "column %d" q
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

let to_diag f =
  let group = match f.location with Group g -> Some g | _ -> None in
  let message =
    match f.location, group with
    | Global, _ | _, Some _ -> f.message
    | loc, None -> Printf.sprintf "%s: %s" (location_to_string loc) f.message
  in
  Diag.make ?group ~pass:f.analysis f.severity message

let location_to_json = function
  | Global -> {|{"kind":"global"}|}
  | Gate i -> Printf.sprintf {|{"kind":"gate","index":%d}|} i
  | Qubit q -> Printf.sprintf {|{"kind":"qubit","index":%d}|} q
  | Row i -> Printf.sprintf {|{"kind":"row","index":%d}|} i
  | Column q -> Printf.sprintf {|{"kind":"column","index":%d}|} q
  | Group g -> Printf.sprintf {|{"kind":"group","index":%d}|} g

let to_json f =
  Printf.sprintf
    {|{"analysis":%s,"severity":"%s","location":%s,"message":%s}|}
    (Json.escape f.analysis)
    (Diag.severity_to_string f.severity)
    (location_to_json f.location)
    (Json.escape f.message)

let list_to_json fs =
  "[" ^ String.concat "," (List.map to_json fs) ^ "]"

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
