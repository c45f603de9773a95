(* The repository benchmark.

     main.exe --workload W --seed S --seconds N --trace 0|1 [--trace-out FILE]
       one workload in this process; prints its metrics as
       "workload metric value unit" rows, then one JSON result line
     main.exe --seed S [--seconds N] [--runs K] [--out FILE]
       every workload, each in its own child process, K runs each
     main.exe --compare OLD.json NEW.json
       judge two --out files against the bounds of ./BENCHMARK.json

   See README.md for the workloads, the metrics and the checks. *)

open Bench_suite
module Json = Phoenix_serve.Json

let workloads = [ "uccsd-logical"; "hw-route"; "large-sparse"; "serve-mix"; "vqe-bind" ]

let run_workload name ~seed ~seconds ~trace ?trace_out () =
  match name with
  | "uccsd-logical" ->
    Compile_run.run ~programs:Inputs.uccsd_logical ~seed ~seconds ~trace ?trace_out ()
  | "hw-route" -> Compile_run.run ~programs:Inputs.hw_route ~seed ~seconds ~trace ?trace_out ()
  | "large-sparse" ->
    Compile_run.run ~programs:Inputs.large_sparse ~seed ~seconds ~trace ?trace_out ()
  | "serve-mix" -> Serve_run.run ~seed ~seconds ~trace ?trace_out ()
  | "vqe-bind" -> Vqe_run.run ~seed ~seconds ~trace ?trace_out ()
  | other -> failwith (Printf.sprintf "unknown workload %S (%s)" other (String.concat ", " workloads))

let usage () =
  prerr_string
    "usage: main.exe --workload W --seed S --seconds N --trace 0|1 [--trace-out FILE]\n\
    \       main.exe --seed S [--seconds N] [--runs K] [--out FILE]\n\
    \       main.exe --compare OLD.json NEW.json\n";
  exit 2

type args = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable runs : int;
  mutable out : string option;
  mutable compare : (string * string) option;
  mutable daemon : string option;
}

let parse argv =
  let a = { workload = None; seed = None; seconds = 20.0; trace = false; trace_out = None;
            runs = 1; out = None; compare = None; daemon = None } in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a.workload <- Some w; go rest
    | "--seed" :: s :: rest -> a.seed <- Some (int s); go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some x when x > 0.0 -> a.seconds <- x | _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a.trace <- t = "1"; go rest
    | "--trace-out" :: f :: rest -> a.trace_out <- Some f; go rest
    | "--runs" :: k :: rest -> a.runs <- max 1 (int k); go rest
    | "--out" :: f :: rest -> a.out <- Some f; go rest
    | "--compare" :: o :: n :: rest -> a.compare <- Some (o, n); go rest
    | "--serve-daemon" :: path :: rest -> a.daemon <- Some path; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  a

let print_rows name (r : Metrics.result) ~trace =
  let defs = if trace then Metrics.per_layer else Metrics.end_to_end in
  List.iter
    (fun (d : Metrics.def) ->
      match List.assoc_opt d.Metrics.name r.Metrics.values with
      | Some v -> Printf.printf "%s %s %.6g %s\n" name d.Metrics.name v d.Metrics.unit_
      | None -> ())
    defs

(* A run still going after this long is stuck: SIGALRM ends it, and with
   it the serve daemon, which watches its parent.  A healthy run of the
   default length takes under 30 s. *)
let watchdog_s = 170

(* One workload in this process: rows, then the result line last. *)
let single name ~seed (a : args) =
  ignore (Unix.alarm watchdog_s);
  let r = run_workload name ~seed ~seconds:a.seconds ~trace:a.trace ?trace_out:a.trace_out () in
  let line = Json.to_string (Metrics.result_json ~trace:a.trace r) in
  print_rows name r ~trace:a.trace;
  print_endline line;
  if not r.Metrics.correct then exit 1

(* Every workload, each in a child process of its own.  Returns the
   children's result lines, or [None] for a child that failed. *)
let child name ~seed (a : args) =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [| exe; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" a.seconds; "--trace"; (if a.trace then "1" else "0") |]
  in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with
    | l -> print_endline l; lines (l :: acc)
    | exception End_of_file -> acc
  in
  let out = lines [] in
  close_in ic;
  match (Unix.waitpid [] pid, out) with
  | (_, Unix.WEXITED 0), last :: _ -> (
    match Json.parse last with Ok j -> Some j | Error _ -> None)
  | _ -> None

let all (a : args) =
  let seed = Option.value a.seed ~default:1 in
  let ok = ref true in
  let results =
    List.map
      (fun name ->
        let runs =
          List.init a.runs (fun k ->
              match child name ~seed:(seed + k) a with
              | Some j -> Some j
              | None ->
                ok := false;
                Printf.eprintf "%s (seed %d) failed\n%!" name (seed + k);
                None)
          |> List.filter_map Fun.id
        in
        (name, runs))
      workloads
  in
  let defs = if a.trace then Metrics.per_layer else Metrics.end_to_end in
  let summary (name, runs) =
    let num path j = Option.bind (List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some j) path) Json.num in
    let metric (d : Metrics.def) =
      let vs = List.filter_map (num [ "metrics"; d.Metrics.name; "value" ]) runs in
      let arr = Array.of_list vs in
      let q1, q2, q3 = if arr = [||] then (0.0, 0.0, 0.0) else Stats.quartiles arr in
      ( d.Metrics.name,
        Json.Obj
          [ ("unit", Json.Str d.Metrics.unit_); ("values", Json.Arr (List.map (fun v -> Json.Num v) vs));
            ("median", Json.Num q2); ("q1", Json.Num q1); ("q3", Json.Num q3) ] )
    in
    let count k = List.fold_left (fun acc j -> acc + int_of_float (Option.value ~default:0.0 (num [ k ] j))) 0 runs in
    let correct = runs <> [] && List.for_all (fun j -> Json.mem "correct" j = Some (Json.Bool true)) runs in
    if not correct then ok := false;
    ( name,
      Json.Obj
        [ ("correct", Json.Bool correct); ("attempted", Json.Num (float_of_int (count "attempted")));
          ("failed", Json.Num (float_of_int (count "failed")));
          ("metrics", Json.Obj (List.map metric defs)) ] )
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Str "phoenix-bench-suite-v1"); ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num a.seconds); ("runs", Json.Num (float_of_int a.runs));
        ("trace", Json.Bool a.trace); ("workloads", Json.Obj (List.map summary results)) ]
  in
  Option.iter
    (fun path ->
      let oc = open_out_bin path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc)
    a.out;
  if not !ok then exit 1

let () =
  let a = parse Sys.argv in
  match (a.daemon, a.compare, a.workload) with
  | Some path, _, _ -> Serve_run.daemon path
  | None, Some (o, n), _ -> if not (Compare.run ~benchmark:"BENCHMARK.json" o n) then exit 1
  | None, None, Some name -> (
    match a.seed with
    | None -> usage ()
    | Some seed -> single name ~seed a)
  | None, None, None -> all a
