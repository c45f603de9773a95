(* --compare OLD NEW: one row per (workload, end-to-end metric), judged
   against the bound BENCHMARK.json fixes for the metric. *)

module Json = Phoenix_serve.Json

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [worse_by] is the relative change in the bad direction (negative when
   the metric improved).  A pair whose run-to-run spread exceeds the
   bound is unresolved unless every new run beats every old run. *)
let judge ~lower_better ~bound ~old_values ~new_values =
  let o = Stats.median old_values and n = Stats.median new_values in
  let worse_by =
    if o = 0.0 then if n = o then 0.0 else infinity
    else if lower_better then (n -. o) /. Float.abs o
    else (o -. n) /. Float.abs o
  in
  let beats a b = if lower_better then a < b else a > b in
  let all_better =
    Array.for_all (fun nv -> Array.for_all (fun ov -> beats nv ov) old_values) new_values
  in
  if Float.max (Stats.spread old_values) (Stats.spread new_values) > bound then
    if all_better then Better else Unresolved
  else if worse_by > bound then Worse
  else if worse_by < -.bound then Better
  else Unchanged

(* The per-run values a results file holds for one workload's metric. *)
let values results workload metric =
  let ( let* ) = Option.bind in
  let* w = Json.mem "workloads" results in
  let* w = Json.mem workload w in
  let* m = Json.mem "metrics" w in
  let* m = Json.mem metric m in
  let* vs = Json.mem "values" m in
  let* vs = Json.arr vs in
  let xs = List.filter_map Json.num vs in
  if xs = [] then None else Some (Array.of_list xs)

let workloads results =
  match Json.mem "workloads" results with
  | Some (Json.Obj ws) -> List.map fst ws
  | _ -> []

(* Print the table; the result is true when no pair got worse. *)
let run ~benchmark old_path new_path =
  let e2e, _ = Metrics.declared benchmark in
  let old_r = Metrics.parse_file old_path and new_r = Metrics.parse_file new_path in
  Printf.printf "%-14s %-16s %14s %14s %6s  %s\n" "workload" "metric" "old" "new" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (d : Metrics.declared) ->
          match (values old_r w d.Metrics.d_name, values new_r w d.Metrics.d_name) with
          | Some old_values, Some new_values ->
            let bound = Option.value ~default:0.0 d.Metrics.d_bound in
            let v =
              judge ~lower_better:(d.Metrics.d_better = "lower") ~bound ~old_values ~new_values
            in
            if v = Worse then incr worse;
            Printf.printf "%-14s %-16s %14.6g %14.6g %6.3f  %s\n" w d.Metrics.d_name
              (Stats.median old_values) (Stats.median new_values) bound (verdict_name v)
          | _ -> ())
        e2e)
    (List.filter (fun w -> List.mem w (workloads new_r)) (workloads old_r));
  !worse = 0
