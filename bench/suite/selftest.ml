(* Self-test of the benchmark harness (run by [dune runtest]): the
   statistics helpers against hand-computed values, seed determinism of
   every generated input, and agreement between the result writer and
   BENCHMARK.json.  Usage: selftest.exe BENCHMARK.json *)

open Bench_suite
module Json = Phoenix_serve.Json

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let stats () =
  check "median of 1..4" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "p90 of 1..10" (close (Stats.percentile 90.0 (Array.init 10 (fun i -> float (i + 1)))) 9.1);
  check "p0 is the minimum" (close (Stats.percentile 0.0 [| 3.; 1.; 2. |]) 1.0);
  check "p100 is the maximum" (close (Stats.percentile 100.0 [| 3.; 1.; 2. |]) 3.0);
  check "p99 of one sample" (close (Stats.percentile 99.0 [| 7. |]) 7.0);
  check "geomean 1 4 16" (close (Stats.geomean [| 1.; 4.; 16. |]) 4.0);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float (10 - i))) in
  check "quartiles of 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0] *)
  let q1, q2, q3 = Stats.quartiles [| 1.; 2.; 4.; 8. |] in
  check "quartiles of 1 2 4 8" (close q1 1.25 && close q2 3.0 && close q3 7.0);
  check "spread of 1..10" (close (Stats.spread (Array.init 10 (fun i -> float (i + 1)))) 1.0);
  check "spread of a constant" (Stats.spread [| 5.; 5.; 5. |] = 0.0);
  (match Stats.slices 2 [ [| 1.; 2.; 3.; 4. |]; [| 10.; 20.; 30.; 40. |] ] with
  | [ [ a; b ]; [ c; d ] ] ->
    check "slices split every group in order"
      (a = [| 1.; 2. |] && b = [| 10.; 20. |] && c = [| 3.; 4. |] && d = [| 30.; 40. |])
  | _ -> check "slices give two slices of two groups" false);
  let groups = [ [| 1.; 2.; 3.; 4. |]; [| 10.; 20.; 30.; 40. |] ] in
  (* slice medians 1.5 and 15, then 3.5 and 35 *)
  check "best latency is the best slice's geomean" (close (Stats.best_latency 2 groups) (sqrt 22.5));
  check "best rate: two ops in 16.5 ms"
    (close (Stats.best_rate 2 ~work:[ 1.; 1. ] groups) (2e3 /. 16.5));
  check "slices never outnumber samples" (List.length (Stats.slices 10 [ [| 1.; 2.; 3. |] ]) = 3);
  let v = Stats.Fvec.create () in
  for i = 1 to 1000 do Stats.Fvec.push v (float i) done;
  let a = Stats.Fvec.to_array v in
  check "fvec grows" (Array.length a = 1000 && a.(999) = 1000.0)

let schedule_bytes seed =
  let s = Inputs.schedule ~seed 7 in
  String.concat ";"
    (List.init 20 (fun _ ->
         String.concat "," (Array.to_list (Array.map string_of_int (Inputs.next_round s)))))

let request_bytes seed =
  let st = Inputs.requests ~seed ~template_params:5 in
  String.concat "\n" (List.init 40 (fun id -> Inputs.request_line ~id (Inputs.next_request st)))
  ^ String.concat " "
      (Array.to_list
         (Array.map (Printf.sprintf "%h") (Inputs.arrivals ~seed ~rate:60.0 ~seconds:2.0)))

let theta_bytes seed =
  let r = Inputs.theta_stream ~seed in
  String.concat " " (List.init 30 (fun _ -> Printf.sprintf "%h" (Inputs.theta r 3).(0)))

let determinism () =
  List.iter
    (fun (what, gen) ->
      check (what ^ ": same seed, same bytes") (String.equal (gen 7) (gen 7));
      check (what ^ ": another seed changes it") (not (String.equal (gen 7) (gen 8))))
    [ ("op schedule", schedule_bytes); ("request stream", request_bytes); ("thetas", theta_bytes) ];
  let st = Inputs.requests ~seed:3 ~template_params:5 in
  let classes = List.init 50 (fun _ -> (Inputs.next_request st).Inputs.cls) in
  let count c = List.length (List.filter (( = ) c) classes) in
  check "request mix is 40/20/20/20 per 50"
    (count Inputs.Hit = 20 && count Inputs.Fresh = 10 && count Inputs.Template = 10
     && count Inputs.Routed = 10);
  let fresh =
    List.find (fun (r : Inputs.request) -> r.Inputs.cls = Inputs.Fresh)
      (List.init 10 (fun _ -> Inputs.next_request st))
  in
  match List.assoc_opt "hamiltonian" fresh.Inputs.body with
  | Some (Json.Str text) ->
    check "fresh Hamiltonians parse" (Result.is_ok (Phoenix_serve.Workload.of_inline text))
  | _ -> check "fresh request carries a Hamiltonian" false

let emitted ~trace values =
  let r = { Metrics.attempted = 1; failed = 0; correct = true; values } in
  match Json.mem "metrics" (Metrics.result_json ~trace r) with
  | Some (Json.Obj ms) ->
    List.map
      (fun (name, m) -> (name, Option.value ~default:"" (Option.bind (Json.mem "unit" m) Json.str)))
      ms
  | _ -> []

let writer path =
  let e2e, per_layer = Metrics.declared path in
  let names ds = List.map (fun (d : Metrics.declared) -> (d.Metrics.d_name, d.Metrics.d_unit)) ds in
  let all_values = List.map (fun (d : Metrics.def) -> (d.Metrics.name, 1.0)) Metrics.end_to_end in
  let written = emitted ~trace:false all_values in
  check "every end_to_end metric of BENCHMARK.json is written, with its unit"
    (List.for_all (fun m -> List.mem m written) (names e2e) && List.length written = List.length e2e);
  let written = emitted ~trace:true [] in
  check "every per_layer metric of BENCHMARK.json is written, with its unit"
    (List.for_all (fun m -> List.mem m written) (names per_layer)
     && List.length written = List.length per_layer);
  check "an unmeasured end-to-end metric is an error"
    (match emitted ~trace:false [] with exception Metrics.Missing _ -> true | _ -> false);
  check "end-to-end bounds are set"
    (List.for_all (fun (d : Metrics.declared) -> d.Metrics.d_bound <> None) e2e);
  let better = function Metrics.Lower -> "lower" | Metrics.Higher -> "higher" in
  check "declared directions match"
    (List.for_all
       (fun (d : Metrics.declared) ->
         match
           List.find_opt
             (fun (def : Metrics.def) -> def.Metrics.name = d.Metrics.d_name)
             (Metrics.end_to_end @ Metrics.per_layer)
         with
         | Some def -> better def.Metrics.better = d.Metrics.d_better
         | None -> false)
       (e2e @ per_layer))

let compare () =
  let j = Compare.judge ~lower_better:true ~bound:0.1 in
  check "compare: 5% slower is unchanged"
    (j ~old_values:[| 10.; 10.; 10. |] ~new_values:[| 10.5; 10.5; 10.5 |] = Compare.Unchanged);
  check "compare: 20% slower is worse"
    (j ~old_values:[| 10.; 10.; 10. |] ~new_values:[| 12.; 12.; 12. |] = Compare.Worse);
  check "compare: wide spread is unresolved"
    (j ~old_values:[| 5.; 10.; 15. |] ~new_values:[| 10.; 11.; 12. |] = Compare.Unresolved)

let () =
  match Sys.argv with
  | [| _; benchmark |] ->
    stats ();
    determinism ();
    writer benchmark;
    compare ();
    if !failures > 0 then exit 1;
    print_endline "bench suite self-test: ok"
  | _ ->
    prerr_endline "usage: selftest.exe BENCHMARK.json";
    exit 2
