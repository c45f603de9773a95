(* Every JSON artifact the phoenix CLI writes must be one line, parse
   back with Phoenix_util.Json and carry its schema tag and the keys its
   schema requires: the --trace and --cert files (also on stdout, as its
   last line), the traces of a template bind and of a stream,
   analyze --json, chaos --json and cache stats --json.  The strings
   they embed — a workload path, a cache directory — contain a double
   quote and a non-ASCII character, which a hand-rolled escaper gets
   wrong.  Usage: json_artifacts PHOENIX_EXE. *)

module Json = Phoenix_util.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("FAIL: " ^ msg);
      incr failures)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run the CLI with [args] and extra environment bindings; returns the
   exit code and stdout (stderr is discarded). *)
let run bin ?(env = []) args =
  let out = Filename.temp_file "phoenix-json" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env bin
      (Array.of_list (bin :: args))
      (Array.append (Array.of_list env) (Unix.environment ()))
      Unix.stdin fd null
  in
  Unix.close fd;
  Unix.close null;
  let code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let str_field key v = Option.bind (Json.mem key v) Json.str

(* Required keys: each entry names a key the object must carry and the
   keys its own object value must carry in turn. *)
type keys = (string * string list) list

let flat names : keys = List.map (fun k -> (k, [])) names

let has_keys name v (keys : keys) =
  List.iter
    (fun (key, inner) ->
      match Json.mem key v with
      | None -> fail "%s: no key %S" name key
      | Some sub ->
        List.iter
          (fun k ->
            if Json.mem k sub = None then fail "%s: no key %S.%S" name key k)
          inner)
    keys

(* Parse [text] and check its schema tag, any expected string [fields],
   the [keys] at the top level and, for each [(array, keys)] in [each],
   the keys of every element of that array, which must be non-empty
   (array [""] is the value itself). *)
let check name ?schema ?(fields = []) ?(keys = []) ?(each = []) text =
  match Json.parse text with
  | Error msg -> fail "%s does not parse: %s" name msg
  | Ok v ->
    Option.iter
      (fun want ->
        if str_field "schema" v <> Some want then
          fail "%s: schema is not %S" name want)
      schema;
    List.iter
      (fun (key, want) ->
        if str_field key v <> Some want then
          fail "%s: %S is not %S" name key want)
      fields;
    has_keys name v keys;
    List.iter
      (fun (array, keys) ->
        let value = if array = "" then Some v else Json.mem array v in
        match Option.bind value Json.arr with
        | Some (_ :: _ as elements) ->
          List.iteri
            (fun i e ->
              has_keys (Printf.sprintf "%s %s[%d]" name array i) e keys)
            elements
        | _ -> fail "%s: %S is not a non-empty array" name array)
      each;
    Printf.printf "ok: %s parses%s\n" name
      (match schema with Some s -> " as " ^ s | None -> "")

let succeeds name (code, text) =
  if code <> 0 then fail "%s -> exit %d (want 0)" name code;
  text

(* An artifact is exactly one newline-terminated line. *)
let one_line name text =
  if String.index_opt text '\n' <> Some (String.length text - 1) then
    fail "%s is not exactly one line" name;
  text

(* The last line of a command's stdout. *)
let last_line text =
  match List.rev (String.split_on_char '\n' (String.trim text)) with
  | line :: _ -> line
  | [] -> ""

let trace_keys =
  [ ("total_seconds", []); ("final", [ "gates"; "one_q"; "two_q"; "depth_2q" ]) ]

let pass_keys =
  [
    ( "passes",
      flat [ "pass"; "seconds"; "alloc_words"; "before"; "after"; "delta" ] );
  ]

let cert_keys =
  [
    ("template", []);
    ("summary", [ "overall"; "proved"; "plausible"; "refuted"; "check_seconds" ]);
  ]

let boundary_keys =
  [
    ( "boundaries",
      flat [ "pass"; "claim"; "verdict"; "pass_seconds"; "check_seconds" ] );
  ]

(* The trace of [compile SOURCE args --trace FILE], checked; returns the
   pass names in order. *)
let check_trace bin name ~source ~trace args =
  ignore (succeeds name (run bin ([ "compile"; source; "--trace"; trace ] @ args)));
  let text = one_line name (read_file trace) in
  check name ~schema:"phoenix-trace-v1" ~fields:[ ("workload", source) ]
    ~keys:trace_keys ~each:pass_keys text;
  match Result.map (Json.mem "passes") (Json.parse text) with
  | Ok (Some (Json.Arr ps)) -> List.filter_map (str_field "pass") ps
  | _ -> []

let () =
  let bin = Sys.argv.(1) in
  let dir = Filename.temp_dir "phoenix-json-\"\xc3\xa9" "" in
  let workload = Filename.concat dir "heis\"\xc3\xa9.txt" in
  let oc = open_out workload in
  output_string oc "0.5 XXI\n0.3 IZZ\n0.2 ZIZ\n";
  close_out oc;
  let trace = Filename.concat dir "trace.json"
  and cert = Filename.concat dir "cert.json"
  and chaos = Filename.concat dir "chaos.json"
  and cache_dir = Filename.concat dir "cache\"\xc3\xa9" in
  ignore (check_trace bin "--trace" ~source:workload ~trace []);
  let passes =
    check_trace bin "--template --bind trace" ~source:workload
      ~trace:(Filename.concat dir "bind.json")
      [ "--template"; "--bind"; "*=1.0" ]
  in
  if not (List.mem "bind" passes) then
    fail "--template --bind trace has no bind entry";
  ignore
    (check_trace bin "--stream trace" ~source:workload
       ~trace:(Filename.concat dir "stream.json")
       [ "--stream"; "2" ]);
  check "--trace -" ~schema:"phoenix-trace-v1"
    ~fields:[ ("workload", workload) ]
    ~keys:trace_keys ~each:pass_keys
    (last_line
       (succeeds "compile --trace -"
          (run bin [ "compile"; workload; "--trace"; "-" ])));
  ignore
    (succeeds "compile --cert" (run bin [ "compile"; workload; "--cert"; cert ]));
  check "--cert" ~schema:"phoenix-cert-v1"
    ~fields:[ ("workload", workload) ]
    ~keys:cert_keys ~each:boundary_keys
    (one_line "--cert" (read_file cert));
  check "certify --json -" ~schema:"phoenix-cert-v1"
    ~fields:[ ("workload", workload) ]
    ~keys:cert_keys ~each:boundary_keys
    (last_line
       (succeeds "certify --json -"
          (run bin [ "certify"; workload; "--json"; "-" ])));
  let findings =
    succeeds "analyze --json" (run bin [ "analyze"; workload; "--json" ])
  in
  check "analyze --json"
    ~each:[ ("", flat [ "analysis"; "severity"; "location"; "message" ]) ]
    (one_line "analyze --json" findings);
  (match Json.parse findings with
  | Ok (Json.Arr fs) ->
    if not (List.for_all (fun f -> str_field "analysis" f <> None) fs) then
      fail "analyze --json: a finding's analysis name is not a string"
  | _ -> ());
  ignore
    (succeeds "chaos --json"
       (run bin
          [
            "chaos"; "--runs"; "1"; "--pipelines"; "phoenix"; "--workload";
            workload; "--json"; chaos;
          ]));
  check "chaos --json" ~schema:"phoenix-chaos-v1"
    ~fields:[ ("workload", workload) ]
    ~keys:
      (flat
         [
           "plan"; "base_seed"; "runs_per_pipeline"; "identical"; "degraded";
           "failed_closed"; "violations";
         ])
    ~each:[ ("results", flat [ "pipeline"; "seed"; "class"; "detail" ]) ]
    (one_line "chaos --json" (read_file chaos));
  let stats =
    succeeds "cache stats --json"
      (run bin
         ~env:[ "PHOENIX_CACHE_DIR=" ^ cache_dir ]
         [ "cache"; "stats"; "--json" ])
  in
  check "cache stats --json" ~schema:"phoenix-cache-stats-v1"
    ~fields:[ ("dir", cache_dir) ]
    ~keys:(flat [ "entries"; "bytes"; "memory_budget_bytes" ])
    (one_line "cache stats --json" stats);
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  exit (if !failures = 0 then 0 else 1)
