(* Spans of the traced run, kept in memory and written out at exit as
   Chrome trace-event JSON (Perfetto and chrome://tracing open it).
   Spans are recorded from the benchmark's own code, around its calls
   into each layer. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root (one op) *)
  name : string;
  layer : string;
  track : int;  (** trace-viewer row: overlapping roots need their own *)
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let add t ?(parent = -1) ?(track = 0) ~layer name t0 t1 =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; layer; track; t0; t1 } :: t.spans;
  id

(* --- self time ---------------------------------------------------------- *)

let overlap a b = Float.max 0.0 (Float.min a.t1 b.t1 -. Float.max a.t0 b.t0)

(* Per layer: span count, total time, and self time — each span's
   duration minus the part of it that its direct children cover.
   Replays run after their op, outside its interval, so they do not
   reduce the op's self time. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    t.spans;
  let table = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered =
        List.fold_left (fun acc c -> acc +. overlap s c) 0.0
          (Hashtbl.find_all children s.id)
      in
      let n, total, self =
        Option.value (Hashtbl.find_opt table s.layer) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace table s.layer
        (n + 1, total +. (s.t1 -. s.t0), self +. Float.max 0.0 (s.t1 -. s.t0 -. covered)))
    t.spans;
  Hashtbl.fold (fun layer (n, total, self) acc -> (layer, n, total, self) :: acc) table []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let print_self_times oc t =
  let rows = self_times t in
  let all = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 rows in
  Printf.fprintf oc "%-24s %8s %12s %12s %7s\n" "layer" "spans" "total_ms" "self_ms" "self%";
  List.iter
    (fun (layer, n, total, self) ->
      Printf.fprintf oc "%-24s %8d %12.3f %12.3f %6.1f%%\n" layer n (1e3 *. total)
        (1e3 *. self)
        (if all > 0.0 then 100.0 *. self /. all else 0.0))
    rows

(* --- Chrome trace-event JSON ------------------------------------------- *)

(* Timestamps count from the earliest span. *)
let write_chrome path t =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity t.spans in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          let us x = 1e6 *. (x -. origin) in
          Printf.fprintf oc
            "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            (Phoenix_serve.Json.escape s.name)
            (Phoenix_serve.Json.escape s.layer)
            (us s.t0) (1e6 *. (s.t1 -. s.t0)) s.track s.id s.parent)
        (List.rev t.spans);
      output_string oc "\n]}\n")
