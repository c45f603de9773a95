(* serve-mix: the compile daemon in a child process ([Serve.run], two
   workers, queue 64, Unix socket) and one client connection with one
   reader thread.  An open loop of seeded Poisson arrivals measures
   latency; a closed loop with a fixed number of requests in flight
   measures throughput.  The only workload that exercises the job
   queue, the handler, per-request workload resolution and a synthesis
   cache shared across jobs. *)

module Serve = Phoenix_serve.Serve
module Client = Serve.Client
module Json = Phoenix_serve.Json
module Workload = Phoenix_serve.Workload
module Hamiltonian = Phoenix_ham.Hamiltonian
module Fvec = Stats.Fvec

let workers = 2
let max_queue = 64

(* About a third of this mix's closed-loop capacity on two vCPUs
   (165-190 req/s), so the queue stays short and latency steady. *)
let rate = 60.0
let in_flight = 4

(* Share of a phase's time given to the open loop; the closed loop gets
   the rest. *)
let open_share = 2.0 /. 3.0

(* The daemon, run by the re-executed benchmark binary.  It drains and
   exits if the benchmark process goes away, so no daemon outlives a
   killed run. *)
let daemon path =
  let parent = Unix.getppid () in
  let rec watch () =
    Thread.delay 0.5;
    if Unix.getppid () <> parent then Unix.kill (Unix.getpid ()) Sys.sigterm else watch ()
  in
  ignore (Thread.create watch ());
  Serve.run { (Serve.default_config (Serve.Unix_socket path)) with workers; max_queue }

type daemon = { pid : int; out : in_channel }

let spawn_daemon path =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--serve-daemon"; path |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  (* [Serve.run] prints one line once it is listening *)
  match input_line out with
  | _ -> { pid; out }
  | exception End_of_file ->
    ignore (Unix.waitpid [] pid);
    close_in_noerr out;
    failwith "serve daemon exited before listening"

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.out

(* --- the client --------------------------------------------------------- *)

type resp = {
  status : int;
  digests : string list;
  wall_s : float;  (** the handler's own compile time *)
  two_q : int;
  depth_2q : int;
  t_recv : float;
}

type conn = {
  c : Client.conn;
  m : Mutex.t;
  cv : Condition.t;
  resps : (int, resp) Hashtbl.t;
  mutable answered : int;  (** responses to compile requests so far *)
  mutable others : (string * Json.t) list;  (** ping/stats answers by id *)
  mutable eof : bool;
}

let num_field path j =
  let rec go j = function
    | [] -> Json.num j
    | k :: rest -> Option.bind (Json.mem k j) (fun v -> go v rest)
  in
  Option.value ~default:0.0 (go j path)

let reader conn () =
  let rec loop () =
    match Client.recv conn.c with
    | None -> ()
    | Some j ->
      let t_recv = Proc.now () in
      Mutex.lock conn.m;
      (match Json.mem "id" j with
      | Some (Json.Num id) ->
        conn.answered <- conn.answered + 1;
        Hashtbl.replace conn.resps (int_of_float id)
          { status = int_of_float (num_field [ "status" ] j);
            digests = Check.payload_digests j;
            wall_s = num_field [ "report"; "wall_s" ] j;
            two_q = int_of_float (num_field [ "report"; "two_q" ] j);
            depth_2q = int_of_float (num_field [ "report"; "depth_2q" ] j);
            t_recv }
      | Some (Json.Str id) -> conn.others <- (id, j) :: conn.others
      | _ -> ());
      Condition.broadcast conn.cv;
      Mutex.unlock conn.m;
      loop ()
    | exception (Failure _ | Unix.Unix_error _) -> ()
  in
  loop ();
  Mutex.lock conn.m;
  conn.eof <- true;
  Condition.broadcast conn.cv;
  Mutex.unlock conn.m

(* Block until [ready ()] holds (under the lock) or the daemon hangs up. *)
let await conn ready =
  Mutex.lock conn.m;
  while not (ready () || conn.eof) do Condition.wait conn.cv conn.m done;
  let ok = ready () in
  Mutex.unlock conn.m;
  ok

let ask conn op =
  Client.send conn.c (Json.Obj [ ("op", Json.Str op); ("id", Json.Str op) ]);
  let found () = List.assoc_opt op conn.others in
  if not (await conn (fun () -> found () <> None)) then failwith ("no answer to " ^ op);
  Mutex.lock conn.m;
  let r = found () in
  conn.others <- List.remove_assoc op conn.others;
  Mutex.unlock conn.m;
  Option.get r

let received conn id = Hashtbl.mem conn.resps id

(* --- set-up -------------------------------------------------------------- *)

type setup = {
  d : daemon;
  conn : conn;
  reader_thread : Thread.t;
  gadgets : (string, int) Hashtbl.t;  (** input gadgets per builtin spec *)
  params : int;  (** parameters of the template workload *)
  total_s : float;
}

let teardown s =
  Client.shutdown_send s.conn.c;
  stop_daemon s.d;
  Thread.join s.reader_thread;
  Client.close s.conn.c

(* Resolve the builtins the mix names (for gadget counts and the
   template's parameter count), start the daemon and wait for the first
   ping answered. *)
let setup path =
  let t0 = Proc.now () in
  let gadgets = Hashtbl.create 8 in
  let specs = Inputs.template_spec :: Array.to_list Inputs.hit_specs @ Array.to_list Inputs.routed_specs in
  let params = ref 0 in
  List.iter
    (fun spec ->
      let h = Compile_run.resolve spec in
      Hashtbl.replace gadgets spec (Compile_run.gadget_count h);
      if spec = Inputs.template_spec then
        params := List.length (Option.value ~default:[] (Hamiltonian.term_blocks h)))
    specs;
  let d = spawn_daemon path in
  match Client.connect (Serve.Unix_socket path) with
  | exception e -> stop_daemon d; raise e
  | c -> (
    let conn = { c; m = Mutex.create (); cv = Condition.create (); resps = Hashtbl.create 4096;
                 answered = 0; others = []; eof = false } in
    let reader_thread = Thread.create (reader conn) () in
    let s = { d; conn; reader_thread; gadgets; params = !params; total_s = 0.0 } in
    match ask conn "ping" with
    | _ -> { s with total_s = Proc.now () -. t0 }
    | exception e -> teardown s; raise e)

(* --- phases -------------------------------------------------------------- *)

type sent = { id : int; cls : Inputs.cls; line : string; sched : float; at : float; gadgets : int }

let gadgets_of (s : setup) (req : Inputs.request) =
  match req.Inputs.cls with
  | Inputs.Fresh -> Inputs.fresh_terms
  | _ -> (
    match List.assoc_opt "workload" req.Inputs.body with
    | Some (Json.Str spec) -> Option.value ~default:0 (Hashtbl.find_opt s.gadgets spec)
    | _ -> 0)

let send_request s next_id req ~sched =
  let id = !next_id in
  incr next_id;
  let line = Inputs.request_line ~id req in
  let at = Proc.now () in
  Client.send_line s.conn.c line;
  { id; cls = req.Inputs.cls; line; sched; at; gadgets = gadgets_of s req }

let await_all s sent =
  ignore (await s.conn (fun () -> List.for_all (fun x -> received s.conn x.id) sent))

(* Open loop: send on the Poisson schedule whatever the daemon's state. *)
let open_loop s stream next_id ~seed ~seconds =
  let arrivals = Inputs.arrivals ~seed ~rate ~seconds in
  let start = Proc.now () +. 0.01 in
  let sent =
    Array.to_list
      (Array.map
         (fun offset ->
           let sched = start +. offset in
           let d = sched -. Proc.now () in
           if d > 0.0 then Thread.delay d;
           send_request s next_id (Inputs.next_request stream) ~sched)
         arrivals)
  in
  await_all s sent;
  sent

(* Closed loop: keep [in_flight] requests outstanding for [seconds].
   Every earlier request has been answered when it starts. *)
let closed_loop s stream next_id ~seconds =
  let answered0 = s.conn.answered in
  let deadline = Proc.now () +. seconds in
  let rec go sent n =
    if Proc.now () >= deadline then sent
    else begin
      ignore (await s.conn (fun () -> n - (s.conn.answered - answered0) < in_flight));
      if s.conn.eof then sent
      else go (send_request s next_id (Inputs.next_request stream) ~sched:(Proc.now ()) :: sent) (n + 1)
    end
  in
  let sent = go [] 0 in
  await_all s sent;
  List.rev sent

(* --- one run -------------------------------------------------------------- *)

type phase = {
  opened : sent list;
  closed : sent list;
  open_peak_mb : float;
      (** the daemon's VmHWM after the open loop: a fixed amount of work,
          where the closed loop's depends on its throughput *)
}

let run_phases s stream next_id ~seed ~seconds =
  let opened = open_loop s stream next_id ~seed ~seconds:(open_share *. seconds) in
  let open_peak_mb = Option.value ~default:0.0 (Proc.status_mb ~pid:(string_of_int s.d.pid) "VmHWM") in
  let closed = closed_loop s stream next_id ~seconds:((1.0 -. open_share) *. seconds) in
  { opened; closed; open_peak_mb }

let resp s x = Hashtbl.find_opt s.conn.resps x.id

let latencies s sent =
  Array.of_list
    (List.filter_map
       (fun x -> Option.map (fun r -> 1e3 *. (r.t_recv -. x.sched)) (resp s x))
       sent)

let pct q xs = if xs = [||] then 0.0 else Stats.percentile q xs

let cache_counters stats =
  let f k = int_of_float (num_field [ "stats"; "cache"; k ] stats) in
  (f "hits", f "misses", f "insertions", f "evictions", f "bytes")

(* Open-loop latency by request class: the classes cost from a few to
   tens of milliseconds, so a pooled median would jump between their
   modes. *)
let by_class s sent =
  List.map
    (fun c -> latencies s (List.filter (fun x -> x.cls = c) sent))
    Inputs.classes

(* Open-loop latency from the run's best slice, as for the other
   workloads.  A slice holds too few requests of each class for medians
   of its own, so every request's latency is divided by its class's
   median over the run, the best slice is the one with the lowest median
   ratio, and that ratio scales the run's typical latency. *)
let slices = 5

let open_latency s opened =
  let groups = by_class s opened in
  let medians =
    List.map2 (fun c g -> (c, if g = [||] then 1.0 else Stats.median g)) Inputs.classes groups
  in
  let ratios =
    Array.of_list
      (List.filter_map
         (fun x ->
           Option.map (fun r -> 1e3 *. (r.t_recv -. x.sched) /. List.assoc x.cls medians) (resp s x))
         opened)
  in
  let best =
    List.fold_left
      (fun acc sl -> match sl with [ a ] when a <> [||] -> Float.min acc (Stats.median a) | _ -> acc)
      infinity (Stats.slices slices [ ratios ])
  in
  Stats.typical groups *. best

(* Closed-loop throughput from the median time to complete [window]
   requests, so a stretch of the run where the machine was slow does not
   set it. *)
let window = 20

let throughput s sent =
  let done_at =
    Array.of_list (List.filter_map (fun x -> Option.map (fun r -> r.t_recv) (resp s x)) sent)
  in
  Array.sort Float.compare done_at;
  let n = Array.length done_at / window in
  if n = 0 then 0.0
  else
    let spans = Array.init n (fun k -> done_at.(((k + 1) * window) - 1) -. done_at.(k * window)) in
    float_of_int (window - 1) /. Stats.median spans

(* Warm-up: every builtin once, serially, so the timed phases start with
   the builtins' groups in the cache and every lazy value forced.  The
   builtins' answers are the references for two_q_total and
   depth_2q_total. *)
let warm_up s next_id =
  let builtins =
    List.map (fun spec -> [ ("workload", Json.Str spec); Inputs.no_dump ])
      (Array.to_list Inputs.hit_specs)
    @ List.map
        (fun spec -> [ ("workload", Json.Str spec); ("topology", Json.Str "heavy-hex"); Inputs.no_dump ])
        (Array.to_list Inputs.routed_specs)
  in
  let template =
    [ ("workload", Json.Str Inputs.template_spec); ("template", Json.Bool true);
      ("binds", Json.Arr [ Json.Arr (List.init s.params (fun _ -> Json.Num 1.0)) ]);
      Inputs.no_dump ]
  in
  let send body =
    let x = send_request s next_id { Inputs.cls = Inputs.Hit; body } ~sched:(Proc.now ()) in
    ignore (await s.conn (fun () -> received s.conn x.id));
    x
  in
  let refs = List.map send builtins in
  let all = send template :: refs in
  let failures =
    List.length (List.filter (fun x -> match resp s x with Some r -> r.status <> 0 | None -> true) all)
  in
  (refs, failures)

type daemon_run = {
  warm_refs : sent list;
  warm_failures : int;
  untraced : phase;
  traced : phase option;
  stats_before : Json.t;  (** the daemon's counters around the traced phase *)
  stats_after : Json.t;
  rss_growth_mb : float;
}

let drive s ~seed ~seconds ~trace ~after_phases =
  let next_id = ref 0 in
  let warm_refs, warm_failures = warm_up s next_id in
  let pid = string_of_int s.d.pid in
  let rss () = Option.value ~default:0.0 (Proc.status_mb ~pid "VmRSS") in
  let rss0 = rss () in
  let stream = Inputs.requests ~seed ~template_params:s.params in
  let phase_s = if trace then seconds /. 2.0 else seconds in
  let untraced = run_phases s stream next_id ~seed ~seconds:phase_s in
  after_phases ();
  let stats_before = ask s.conn "stats" in
  let traced = if trace then Some (run_phases s stream next_id ~seed ~seconds:phase_s) else None in
  let stats_after = ask s.conn "stats" in
  { warm_refs; warm_failures; untraced; traced; stats_before; stats_after;
    rss_growth_mb = rss () -. rss0 }

(* Every response must be status 0 and carry the digests a serial
   [Handler.execute] of the same request gives.  Template requests differ
   only in their bind vectors, so one serial run that binds the vectors
   of [template_batch] requests stands in for one run each (a batch bind
   is bit-identical to binding each vector alone).  Returns the failures
   and the GC counters of the reference runs, per request checked. *)
let template_batch = 16

let check_responses s sent =
  let body x = match Json.parse x.line with Ok (Json.Obj (_id :: body)) -> body | _ -> [] in
  let line body = Json.to_string (Json.Obj (("id", Json.Num 0.0) :: body)) in
  let reference body =
    match Check.serve_reference (line body) with
    | Ok (0, digests) when digests <> [] -> Some (Array.of_list digests)
    | _ -> None
  in
  let gc0 = Proc.gc_snapshot () in
  let expected = Hashtbl.create 256 in
  let templates, others = List.partition (fun x -> x.cls = Inputs.Template) sent in
  let binds x = match List.assoc_opt "binds" (body x) with Some (Json.Arr bs) -> bs | _ -> [] in
  let rec batches = function
    | [] -> ()
    | first :: _ as xs ->
      let batch = List.filteri (fun i _ -> i < template_batch) xs in
      let all = Json.Arr (List.concat_map binds batch) in
      (match reference (List.map (fun (k, v) -> if k = "binds" then (k, all) else (k, v)) (body first)) with
      | None -> ()
      | Some digests ->
        ignore
          (List.fold_left
             (fun at x ->
               let n = List.length (binds x) in
               if at + n <= Array.length digests then
                 Hashtbl.replace expected x.id (Array.to_list (Array.sub digests at n));
               at + n)
             0 batch));
      batches (List.filteri (fun i _ -> i >= template_batch) xs)
  in
  batches templates;
  let by_body = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let key = Json.to_string (Json.Obj (body x)) in
      let d =
        match Hashtbl.find_opt by_body key with
        | Some d -> d
        | None ->
          let d = reference (body x) in
          Hashtbl.replace by_body key d;
          d
      in
      Option.iter (fun d -> Hashtbl.replace expected x.id (Array.to_list d)) d)
    others;
  let failed =
    List.length
      (List.filter
         (fun x ->
           let ok =
             match (resp s x, Hashtbl.find_opt expected x.id) with
             | Some r, Some d -> r.status = 0 && r.digests = d
             | _ -> false
           in
           if not ok then
             Printf.eprintf "serve request %d (%s) failed its check\n%!" x.id (Inputs.cls_name x.cls);
           not ok)
         sent)
  in
  (failed, Proc.gc_metrics ~ops:(List.length sent) gc0 (Proc.gc_snapshot ()))

(* Spans from the client's view of each traced request, plus an
   in-process replay of the daemon's workload resolution.  Returns the
   resolution times by class. *)
let record_spans s tr sent =
  let resolve = Hashtbl.create 4 in
  List.iter
    (fun x ->
      Option.iter
        (fun r ->
          let root = Span.add tr ~track:x.id ~layer:"request" (Inputs.cls_name x.cls) x.sched r.t_recv in
          let started = r.t_recv -. r.wall_s in
          ignore (Span.add tr ~parent:root ~track:x.id ~layer:"serve.queue" "queue" x.sched started);
          ignore (Span.add tr ~parent:root ~track:x.id ~layer:"serve.handler" "handler" started r.t_recv);
          let t0 = Proc.now () in
          (match Json.parse x.line with
          | Ok j -> (
            match (Json.mem "workload" j, Json.mem "hamiltonian" j) with
            | Some (Json.Str spec), _ -> ignore (Workload.of_spec spec)
            | _, Some (Json.Str text) -> ignore (Workload.of_inline text)
            | _ -> ())
          | Error _ -> ());
          let t1 = Proc.now () in
          ignore (Span.add tr ~parent:root ~track:x.id ~layer:"ham" "ham.of_spec" t0 t1);
          Hashtbl.add resolve x.cls (1e3 *. (t1 -. t0)))
        (resp s x))
    sent;
  resolve

let layer_values s ?trace_out d (tp : phase) =
  let tr = Span.create () in
  let traced = tp.opened @ tp.closed in
  let resolve = record_spans s tr traced in
  Span.print_self_times stdout tr;
  Option.iter (fun path -> Span.write_chrome path tr) trace_out;
  let opened f = Array.of_list (List.filter_map (fun x -> Option.map (f x) (resp s x)) tp.opened) in
  let queue = opened (fun x r -> 1e3 *. (r.t_recv -. x.sched -. r.wall_s)) in
  let per_class c =
    pct 50.0 (Array.of_list (List.filter_map
      (fun x -> if x.cls = c then Option.map (fun r -> 1e3 *. (r.t_recv -. x.sched)) (resp s x) else None)
      tp.opened))
  in
  let h1, m1, i1, e1, _ = cache_counters d.stats_before
  and h2, m2, i2, e2, bytes = cache_counters d.stats_after in
  let lookups = h2 + m2 - h1 - m1 in
  let requests = float_of_int (max 1 (List.length traced)) in
  let refused = List.filter (fun x -> match resp s x with Some r -> r.status = 6 | None -> false) traced in
  List.map
    (fun c -> ("serve.resolve_ms." ^ Inputs.cls_name c, pct 50.0 (Array.of_list (Hashtbl.find_all resolve c))))
    Inputs.classes
  @ List.map (fun c -> ("serve." ^ Inputs.cls_name c ^ "_ms.p50", per_class c)) Inputs.classes
  @ [
      ("serve.handler_ms.p50", pct 50.0 (opened (fun _ r -> 1e3 *. r.wall_s)));
      ("serve.queue_ms.p50", pct 50.0 queue);
      ("serve.queue_ms.p99", pct 99.0 queue);
      ("serve.refused", float_of_int (List.length refused));
      ("serve.late_ms.p99", pct 99.0 (Array.of_list (List.map (fun x -> 1e3 *. (x.at -. x.sched)) tp.opened)));
      ("serve.rss_growth_mb", d.rss_growth_mb);
      ("cache.lookups", float_of_int lookups /. requests);
      ("cache.hit_ratio", if lookups = 0 then 0.0 else float_of_int (h2 - h1) /. float_of_int lookups);
      ("cache.insertions", float_of_int (i2 - i1) /. requests);
      ("cache.evictions", float_of_int (e2 - e1) /. requests);
      ("cache.bytes", float_of_int bytes);
      ("latency_p90_ms", Stats.tail 90.0 (by_class s d.untraced.opened));
      ("latency_p99_ms", Stats.tail 99.0 (by_class s d.untraced.opened));
      ("warmup.failures", float_of_int d.warm_failures);
      ( "trace.overhead_pct",
        100.0
        *. ((Stats.typical (by_class s tp.opened) /. Stats.typical (by_class s d.untraced.opened)) -. 1.0) );
    ]

let e2e_values s ~setup_s d =
  let p = d.untraced in
  let completed = List.filter (fun x -> resp s x <> None) p.closed in
  let ops = throughput s p.closed in
  let gadgets_per_op =
    float_of_int (List.fold_left (fun acc x -> acc + x.gadgets) 0 completed)
    /. float_of_int (max 1 (List.length completed))
  in
  let total f =
    float_of_int (List.fold_left (fun acc x -> acc + Option.fold ~none:0 ~some:f (resp s x)) 0 d.warm_refs)
  in
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", open_latency s p.opened);
    ("ops_per_s", ops);
    ("gadgets_per_s", ops *. gadgets_per_op);
    ("two_q_total", total (fun r -> r.two_q));
    ("depth_2q_total", total (fun r -> r.depth_2q));
    ("peak_rss_mb", p.open_peak_mb);
  ]

let run ~seed ~seconds ~trace ?trace_out () =
  let path = Printf.sprintf ".bench-suite-%d.sock" (Unix.getpid ()) in
  (* Set-up is timed on spare daemons too — before the phases and after
     them, on a socket of their own — so its median spans the run. *)
  let setups = Fvec.create () in
  let spare () =
    let s = setup (Printf.sprintf ".bench-suite-%d-spare.sock" (Unix.getpid ())) in
    Fvec.push setups s.total_s;
    teardown s
  in
  let spares = Proc.setup_repeats / 2 in
  for _ = 1 to spares do spare () done;
  let s = setup path in
  Fvec.push setups s.total_s;
  let after_phases () = for _ = spares + 2 to Proc.setup_repeats do spare () done in
  let d =
    Fun.protect ~finally:(fun () -> teardown s) (fun () -> drive s ~seed ~seconds ~trace ~after_phases)
  in
  let setup_s = Stats.median (Fvec.to_array setups) in
  let phases = d.untraced :: Option.to_list d.traced in
  let sent = List.concat_map (fun p -> p.opened @ p.closed) phases in
  let check_failed, gc = check_responses s sent in
  let values =
    match d.traced with
    | Some tp -> gc @ layer_values s ?trace_out d tp
    | None -> e2e_values s ~setup_s d
  in
  let failed = check_failed + d.warm_failures in
  { Metrics.attempted = List.length sent; failed; correct = failed = 0; values }
