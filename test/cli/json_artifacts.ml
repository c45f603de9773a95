(* Every JSON artifact the phoenix CLI writes must parse back with
   Phoenix_util.Json and carry its schema tag: the --trace and --cert
   files, analyze --json, chaos --json and cache stats --json.  The
   strings they embed — a workload path, a cache directory — contain a
   double quote and a non-ASCII character, which a hand-rolled escaper
   gets wrong.  Usage: json_artifacts PHOENIX_EXE. *)

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

(* Parse [text] and check its schema tag plus any expected string
   fields. *)
let check name ?schema ?(fields = []) text =
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
    Printf.printf "ok: %s parses%s\n" name
      (match schema with Some s -> " as " ^ s | None -> "")

let succeeds name (code, text) =
  if code <> 0 then fail "%s -> exit %d (want 0)" name code;
  text

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
  ignore
    (succeeds "compile --trace"
       (run bin [ "compile"; workload; "--trace"; trace ]));
  check "--trace" ~schema:"phoenix-trace-v1"
    ~fields:[ ("workload", workload) ]
    (read_file trace);
  ignore
    (succeeds "compile --cert" (run bin [ "compile"; workload; "--cert"; cert ]));
  check "--cert" ~schema:"phoenix-cert-v1"
    ~fields:[ ("workload", workload) ]
    (read_file cert);
  let findings =
    succeeds "analyze --json" (run bin [ "analyze"; workload; "--json" ])
  in
  check "analyze --json" findings;
  (match Json.parse findings with
  | Ok (Json.Arr (_ :: _ as fs)) ->
    if not (List.for_all (fun f -> str_field "analysis" f <> None) fs) then
      fail "analyze --json: a finding has no analysis name"
  | _ -> fail "analyze --json is not a non-empty array of findings");
  ignore
    (succeeds "chaos --json"
       (run bin
          [
            "chaos"; "--runs"; "1"; "--pipelines"; "phoenix"; "--workload";
            workload; "--json"; chaos;
          ]));
  check "chaos --json" ~schema:"phoenix-chaos-v1"
    ~fields:[ ("workload", workload) ]
    (read_file chaos);
  let stats =
    succeeds "cache stats --json"
      (run bin
         ~env:[ "PHOENIX_CACHE_DIR=" ^ cache_dir ]
         [ "cache"; "stats"; "--json" ])
  in
  check "cache stats --json" ~schema:"phoenix-cache-stats-v1"
    ~fields:[ ("dir", cache_dir) ]
    stats;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  exit (if !failures = 0 then 0 else 1)
