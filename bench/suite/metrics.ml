(* The metric catalogue and the result writer.  BENCHMARK.json at the
   repository root fixes the bounds; the self-test checks that it names
   exactly the metrics below, with the same units. *)

module Json = Phoenix_serve.Json

type better = Lower | Higher

type def = { name : string; unit_ : string; better : better }

let def name unit_ better = { name; unit_; better }

(* What a user of the compiler sees.  Every workload reports every one,
   and none is ever zero. *)
let end_to_end =
  [
    def "setup_s" "s" Lower;
    def "latency_p50_ms" "ms" Lower;
    def "ops_per_s" "1/s" Higher;
    def "gadgets_per_s" "1/s" Higher;
    def "two_q_total" "count" Lower;
    def "depth_2q_total" "count" Lower;
    def "peak_rss_mb" "MB" Lower;
  ]

let passes = [ "group"; "simplify"; "order"; "assemble"; "peephole"; "lower"; "route" ]

(* One layer each, from the traced run.  A layer a workload does not
   exercise reports 0 there. *)
let per_layer =
  List.concat_map
    (fun p ->
      [
        def ("pass." ^ p ^ ".ms") "ms" Lower;
        def ("pass." ^ p ^ ".share") "ratio" Lower;
        def ("pass." ^ p ^ ".alloc_mw") "Mwords" Lower;
      ])
    passes
  @ [
      def "synth.groups" "count" Lower;
      def "synth.group_p50_us" "us" Lower;
      def "synth.group_max_ms" "ms" Lower;
      def "synth.parallel_eff" "ratio" Higher;
      def "router.sabre_ms" "ms" Lower;
      def "router.commuting_ms" "ms" Lower;
      def "router.swaps" "count" Lower;
      def "order.us_per_gadget" "us" Lower;
      def "order.growth_ratio" "ratio" Lower;
      def "cache.lookups" "count" Lower;
      def "cache.hit_ratio" "ratio" Higher;
      def "cache.insertions" "count" Lower;
      def "cache.evictions" "count" Lower;
      def "cache.bytes" "bytes" Lower;
      def "template.compile_ms" "ms" Lower;
      def "template.slot_sites" "count" Lower;
      def "bind.us" "us" Lower;
      def "bind.alloc_words" "words" Lower;
      def "angle.arena_growth" "count" Lower;
      def "ham.build_ms" "ms" Lower;
      def "serve.resolve_ms.hit" "ms" Lower;
      def "serve.resolve_ms.fresh" "ms" Lower;
      def "serve.resolve_ms.template" "ms" Lower;
      def "serve.resolve_ms.routed" "ms" Lower;
      def "serve.handler_ms.p50" "ms" Lower;
      def "serve.queue_ms.p50" "ms" Lower;
      def "serve.queue_ms.p99" "ms" Lower;
      def "serve.refused" "count" Lower;
      def "serve.late_ms.p99" "ms" Lower;
      def "serve.hit_ms.p50" "ms" Lower;
      def "serve.fresh_ms.p50" "ms" Lower;
      def "serve.template_ms.p50" "ms" Lower;
      def "serve.routed_ms.p50" "ms" Lower;
      def "serve.rss_growth_mb" "MB" Lower;
      def "latency_p90_ms" "ms" Lower;
      def "latency_p99_ms" "ms" Lower;
      def "gc.minor_per_op" "count" Lower;
      def "gc.major_per_op" "count" Lower;
      def "gc.top_heap_mb" "MB" Lower;
      def "warmup.failures" "count" Lower;
      def "check.certify_s" "s" Lower;
      def "trace.overhead_pct" "%" Lower;
      def "trace.pass_coverage" "ratio" Higher;
    ]

(* --- results ------------------------------------------------------------ *)

type result = {
  attempted : int;  (** timed ops (compiles, requests or binds) *)
  failed : int;  (** failed ops plus failed output checks *)
  correct : bool;  (** every output check passed *)
  values : (string * float) list;
}

exception Missing of string

(* The result line.  With [trace = false] it carries the end-to-end
   metrics, each of which the workload must have measured; with
   [trace = true] every per-layer metric, 0 for a layer the workload
   does not exercise. *)
let result_json ~trace r =
  let value d =
    match List.assoc_opt d.name r.values with
    | Some v when Float.is_finite v -> v
    | Some _ -> raise (Missing (d.name ^ " is not finite"))
    | None when trace -> 0.0
    | None -> raise (Missing d.name)
  in
  let defs = if trace then per_layer else end_to_end in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun d ->
               ( d.name,
                 Json.Obj [ ("value", Json.Num (value d)); ("unit", Json.Str d.unit_) ] ))
             defs) );
    ]

(* --- BENCHMARK.json ----------------------------------------------------- *)

type declared = { d_name : string; d_unit : string; d_better : string; d_bound : float option }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse_file path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* The [end_to_end] and [per_layer] lists of a BENCHMARK.json. *)
let declared path =
  let j = parse_file path in
  let list key =
    match Option.bind (Json.mem key j) Json.arr with
    | None -> failwith (Printf.sprintf "%s: no %S list" path key)
    | Some xs ->
      List.map
        (fun m ->
          let str k = Option.value ~default:"" (Option.bind (Json.mem k m) Json.str) in
          { d_name = str "name"; d_unit = str "unit"; d_better = str "better";
            d_bound = Option.bind (Json.mem "bound" m) Json.num })
        xs
  in
  (list "end_to_end", list "per_layer")
