(* The serve daemon, proven correct by a soak/differential battery:

   - soak: 200+ concurrent mixed jobs through a live daemon (shared
     synthesis cache, worker-domain pool) must be bit-identical —
     circuit digests and the semantic report subset — to serial
     [Handler.execute] runs of the same specs;
   - protocol fault injection: malformed/truncated/oversized frames,
     unknown pipelines/workloads, mid-request disconnects, and seeded
     chaos worker faults must produce structured error responses (or
     fail closed bit-identically), never a crash or a malformed frame;
   - a qcheck property: the by-id response semantics are independent of
     submission order and worker count — the completion-order freedom
     the wire protocol grants is unobservable in the answers. *)

module Serve = Phoenix_serve.Serve
module Client = Phoenix_serve.Serve.Client
module Json = Phoenix_serve.Json
module Protocol = Phoenix_serve.Protocol
module Handler = Phoenix_serve.Handler
module Jobqueue = Phoenix_serve.Jobqueue
module Workload = Phoenix_serve.Workload
module Chaos = Phoenix_util.Chaos

(* --- helpers ------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "phxsrv" ".sock" in
  Sys.remove path;
  path

let boot ?(workers = 4) ?(max_queue = 512) ?max_request_bytes () =
  let path = temp_socket () in
  let base = Serve.default_config (Serve.Unix_socket path) in
  let config =
    {
      base with
      Serve.workers;
      max_queue;
      max_request_bytes =
        Option.value max_request_bytes ~default:base.Serve.max_request_bytes;
    }
  in
  (Serve.start config, Serve.Unix_socket path)

let with_server ?workers ?max_queue ?max_request_bytes f =
  let t, addr = boot ?workers ?max_queue ?max_request_bytes () in
  Fun.protect ~finally:(fun () -> Serve.drain t) (fun () -> f addr)

let field k j = Option.value (Json.mem k j) ~default:Json.Null
let status_of j = Option.value (Json.int (field "status" j)) ~default:(-1)
let id_of j = Option.value (Json.str (field "id" j)) ~default:"?"

(* The semantic subset the differential battery compares: status, error,
   circuit digests, metrics, diagnostics, findings, degradations — but
   not wall times, per-pass seconds, or cache counters (the shared cache
   makes per-run counter deltas concurrency-dependent by design). *)
let semantics resp =
  let report = field "report" resp in
  Json.to_string
    (Json.Obj
       [
         ("status", field "status" resp);
         ("kind", field "kind" resp);
         ("error", field "error" resp);
         ("circuit", field "circuit" resp);
         ("binds", field "binds" resp);
         ("params", field "params" resp);
         ("diagnostics", field "diagnostics" resp);
         ("findings", field "findings" resp);
         ("two_q", field "two_q" report);
         ("one_q", field "one_q" report);
         ("depth_2q", field "depth_2q" report);
         ("swaps", field "swaps" report);
         ("groups", field "groups" report);
         ("degradations", field "degradations" report);
       ])

(* Serial reference: same spec through the same execution path, no
   transport, no concurrency. *)
let reference_response fields =
  let req = Json.to_string (Json.Obj fields) in
  match Protocol.parse_request req with
  | Ok (Protocol.Compile { spec; _ }) ->
    Handler.response ~id:Json.Null (Handler.execute spec)
  | Ok _ -> Alcotest.fail "reference request is not a compile"
  | Error (_, msg) ->
    Protocol.error_response ~id:Json.Null ~status:Protocol.Sbad_request msg

(* Send [jobs] (id -> request fields) across [conns] connections
   round-robin, with one collector thread per connection; returns the
   responses keyed by id. *)
let run_jobs addr ~conns jobs =
  let cs = Array.init conns (fun _ -> Client.connect addr) in
  let results = Hashtbl.create (List.length jobs) in
  let rm = Mutex.create () in
  let collectors =
    Array.map
      (fun c ->
        Thread.create
          (fun () ->
            let rec loop () =
              match Client.recv c with
              | Some resp ->
                Mutex.lock rm;
                Hashtbl.replace results (id_of resp) resp;
                Mutex.unlock rm;
                loop ()
              | None -> ()
            in
            loop ())
          ())
      cs
  in
  List.iteri
    (fun i (id, fields) ->
      Client.send cs.(i mod conns)
        (Json.Obj (("id", Json.Str id) :: fields)))
    jobs;
  Array.iter Client.shutdown_send cs;
  Array.iter Thread.join collectors;
  Array.iter Client.close cs;
  results

(* --- the mixed workload ------------------------------------------------- *)

let w k v = (k, Json.Str v)
let b k v = (k, Json.Bool v)

let inline_ham = "0.5 XXI\n0.25 IYZ\n-0.75 ZZZ\n0.1 ZII"

let qasm_text =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx \
   q[0],q[1];\nrz(0.25) q[2];\nrz(-0.25) q[2];\ncx q[0],q[1];\nh q[2];\n"

(* Every spec disables the gate dump: the digest plus the metric fields
   already pin the circuit bit-for-bit, at a fraction of the bytes. *)
let mixed_specs =
  let nodump = b "dump" false in
  [
    ("uccsd", [ w "workload" "uccsd:LiH_frz_JW"; nodump ]);
    ("qaoa", [ w "workload" "qaoa:Reg3-16"; nodump ]);
    ("hubbard", [ w "workload" "fermi-hubbard:2x2"; nodump ]);
    ("heis-tket", [ w "workload" "heisenberg:6"; w "pipeline" "tket"; nodump ]);
    ( "tfim-paulihedral",
      [ w "workload" "tfim:6"; w "pipeline" "paulihedral"; nodump ] );
    ( "heis-tetris",
      [ w "workload" "heisenberg:5"; w "pipeline" "tetris"; nodump ] );
    ("tfim-naive", [ w "workload" "tfim:5"; w "pipeline" "naive"; nodump ]);
    ( "heis-2qan",
      [
        w "workload" "heisenberg:6"; w "pipeline" "2qan"; w "topology" "line";
        nodump;
      ] );
    ("qaoa-su4", [ w "workload" "qaoa:Reg3-16"; w "isa" "su4"; nodump ]);
    ("heis-ring", [ w "workload" "heisenberg:6"; w "topology" "ring"; nodump ]);
    ("tfim-nocache", [ w "workload" "tfim:6"; w "cache" "off"; nodump ]);
    ("inline", [ w "hamiltonian" inline_ham; nodump ]);
    ("qasm", [ w "qasm" qasm_text; nodump ]);
    (* qaoa:Reg3-16 has 24 parameters (one per ZZ edge gadget) *)
    ( "template",
      [
        w "workload" "qaoa:Reg3-16";
        b "template" true;
        ( "binds",
          Json.Arr
            [
              Json.Arr (List.init 24 (fun i -> Json.Num (0.1 *. float_of_int i)));
              Json.Arr (List.init 24 (fun _ -> Json.Num 1.0));
            ] );
        nodump;
      ] );
    ("verify", [ w "workload" "heisenberg:4"; b "verify" true; nodump ]);
    ("lint", [ w "workload" "tfim:4"; b "lint" true; nodump ]);
  ]

(* --- soak --------------------------------------------------------------- *)

let test_soak () =
  let reps = 13 in
  (* 16 specs x 13 reps = 208 jobs *)
  let jobs =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, fields) -> (Printf.sprintf "%s#%d" name r, fields))
          mixed_specs)
      (List.init reps (fun r -> r))
  in
  Alcotest.(check bool) "at least 200 jobs" true (List.length jobs >= 200);
  let expected =
    List.map
      (fun (name, fields) ->
        let reference = reference_response fields in
        (* every mixed spec is a valid job: a reference that rejects
           would make the differential vacuous for that spec *)
        Alcotest.(check int)
          (name ^ " reference compiles clean") 0 (status_of reference);
        (name, semantics reference))
      mixed_specs
  in
  with_server ~workers:4 (fun addr ->
      let results = run_jobs addr ~conns:8 jobs in
      Alcotest.(check int)
        "every job answered" (List.length jobs) (Hashtbl.length results);
      List.iter
        (fun (id, _) ->
          let name = List.hd (String.split_on_char '#' id) in
          let want = List.assoc name expected in
          match Hashtbl.find_opt results id with
          | None -> Alcotest.failf "no response for %s" id
          | Some resp ->
            Alcotest.(check string)
              (Printf.sprintf "%s == serial reference" id)
              want (semantics resp))
        jobs;
      (* stats must account for exactly these worker jobs *)
      let c = Client.connect addr in
      Client.send c (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Str "s") ]);
      (match Client.recv c with
      | None -> Alcotest.fail "no stats response"
      | Some resp ->
        let stats = field "stats" resp in
        Alcotest.(check (option int))
          "jobs_served" (Some (List.length jobs))
          (Json.int (field "jobs_served" stats));
        Alcotest.(check (option int))
          "queue drained" (Some 0)
          (Json.int (field "depth" (field "queue" stats))));
      Client.close c)

(* Same spec, same digest, whatever the cache tier: a shared-cache hit
   replays bit-identically to a cold synthesis, so tier "off" and tier
   "mem" jobs racing the same daemon agree gate for gate. *)
let test_cache_tiers_agree () =
  with_server ~workers:4 (fun addr ->
      let jobs =
        List.concat_map
          (fun r ->
            [
              ( Printf.sprintf "mem#%d" r,
                [ w "workload" "heisenberg:6"; b "dump" true ] );
              ( Printf.sprintf "off#%d" r,
                [ w "workload" "heisenberg:6"; w "cache" "off"; b "dump" true ]
              );
            ])
          (List.init 6 (fun r -> r))
      in
      let results = run_jobs addr ~conns:4 jobs in
      let gates_of id =
        match Hashtbl.find_opt results id with
        | None -> Alcotest.failf "no response for %s" id
        | Some resp -> Json.to_string (field "circuit" resp)
      in
      let reference = gates_of "mem#0" in
      List.iter
        (fun (id, _) ->
          Alcotest.(check string) (id ^ " agrees") reference (gates_of id))
        jobs)

(* --- protocol fault injection ------------------------------------------- *)

let test_malformed_lines () =
  with_server ~workers:1 (fun addr ->
      let c = Client.connect addr in
      let expect name want =
        match Client.recv c with
        | None -> Alcotest.failf "%s: connection closed" name
        | Some resp -> Alcotest.(check int) name want (status_of resp)
      in
      Client.send_line c "this is not json";
      expect "garbage" 2;
      Client.send_line c "{\"id\": 1, \"workload\": \"tfim:3\"";
      expect "unterminated object" 2;
      Client.send_line c "[1,2,3]";
      expect "non-object request" 2;
      Client.send_line c "{\"id\":\"x\",\"op\":\"transmogrify\"}";
      expect "unknown op" 2;
      Client.send_line c "{\"id\":\"x\",\"workload\":42}";
      expect "non-string workload" 2;
      Client.send_line c "{\"id\":\"x\"}";
      expect "no source" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"qasm\":\"q\"}";
      expect "two sources" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"pipeline\":\"nope\"}";
      expect "unknown pipeline" 2;
      Client.send_line c "{\"id\":\"x\",\"workload\":\"wat:9\"}";
      expect "unknown workload" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"isa\":\"xy\"}";
      expect "unknown isa" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"topology\":\"moebius\"}";
      expect "unknown topology" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"heisenberg:4\",\"pipeline\":\"2qan\"}";
      expect "2qan without a topology" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"uccsd:LiH_frz_JW\",\"pipeline\":\"2qan\",\
         \"topology\":\"line\"}";
      expect "2qan on a workload that is not 2-local" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"pipeline\":\"tket\",\
         \"template\":true}";
      expect "template on a baseline pipeline" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"bind\":[0.5]}";
      expect "bind without template" 2;
      Client.send_line c
        "{\"id\":\"x\",\"workload\":\"tfim:3\",\"budget_checks\":0}";
      expect "zero budget_checks" 2;
      Client.send_line c "{\"id\":\"x\",\"hamiltonian\":\"not a term\"}";
      expect "bad inline hamiltonian" 2;
      Client.send_line c "{\"id\":\"x\",\"qasm\":\"h q[0];\"}";
      expect "bad qasm" 2;
      (* the connection survived all of it *)
      Client.send c (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "p") ]);
      expect "still serving" 0;
      Client.close c)

let test_error_id_echo () =
  with_server ~workers:1 (fun addr ->
      let c = Client.connect addr in
      Client.send_line c "{\"id\":\"echo-me\",\"workload\":\"wat:9\"}";
      (match Client.recv c with
      | None -> Alcotest.fail "connection closed"
      | Some resp ->
        Alcotest.(check string) "id echoed" "echo-me" (id_of resp);
        Alcotest.(check int) "bad request" 2 (status_of resp);
        (match field "error" resp with
        | Json.Obj _ as e ->
          Alcotest.(check (option string))
            "structured severity" (Some "error")
            (Json.str (field "severity" e))
        | _ -> Alcotest.fail "error is not structured"));
      Client.close c)

let test_truncated_frame () =
  with_server ~workers:1 (fun addr ->
      (* a frame cut mid-JSON with no newline is not a request: the
         daemon sees EOF mid-line, drops it, and keeps serving *)
      let c1 = Client.connect addr in
      Client.send_raw c1 "{\"id\":\"t\",\"workload\":\"tfim";
      Client.shutdown_send c1;
      Alcotest.(check bool) "no response for truncation" true
        (Client.recv c1 = None);
      Client.close c1;
      let c2 = Client.connect addr in
      Client.send c2 (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "p") ]);
      (match Client.recv c2 with
      | Some resp -> Alcotest.(check int) "daemon alive" 0 (status_of resp)
      | None -> Alcotest.fail "daemon died after truncated frame");
      Client.close c2)

let test_oversized_payload () =
  with_server ~workers:1 ~max_request_bytes:4096 (fun addr ->
      let c = Client.connect addr in
      Client.send_line c
        (Printf.sprintf "{\"id\":\"big\",\"qasm\":\"%s\"}"
           (String.make 8192 'x'));
      (match Client.recv c with
      | None -> Alcotest.fail "no oversize response"
      | Some resp ->
        Alcotest.(check int) "oversize is a bad request" 2 (status_of resp));
      (* the connection is dropped afterwards: NDJSON cannot resync *)
      Alcotest.(check bool) "connection closed" true (Client.recv c = None);
      Client.close c;
      let c2 = Client.connect addr in
      Client.send c2 (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "p") ]);
      (match Client.recv c2 with
      | Some resp -> Alcotest.(check int) "daemon alive" 0 (status_of resp)
      | None -> Alcotest.fail "daemon died after oversized frame");
      Client.close c2)

let test_disconnect_mid_job () =
  with_server ~workers:2 (fun addr ->
      (* enqueue real jobs, then vanish before the answers come back:
         the workers must absorb the dead socket (EPIPE) and the daemon
         must keep serving others *)
      let c = Client.connect addr in
      for i = 1 to 5 do
        Client.send c
          (Json.Obj
             [
               ("id", Json.Str (Printf.sprintf "gone-%d" i));
               w "workload" "qaoa:Reg3-16";
               b "dump" false;
             ])
      done;
      Client.close c;
      let c2 = Client.connect addr in
      let rec settle tries =
        Client.send c2
          (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Str "s") ]);
        match Client.recv c2 with
        | None -> Alcotest.fail "daemon died after client disconnect"
        | Some resp ->
          let served =
            Option.value
              (Json.int (field "jobs_served" (field "stats" resp)))
              ~default:0
          in
          if served >= 5 then ()
          else if tries = 0 then
            Alcotest.failf "only %d/5 abandoned jobs served" served
          else begin
            Thread.delay 0.05;
            settle (tries - 1)
          end
      in
      settle 200;
      Client.send c2
        (Json.Obj
           [ ("id", Json.Str "ok"); w "workload" "tfim:4"; b "dump" false ]);
      (match Client.recv c2 with
      | Some resp -> Alcotest.(check int) "still compiling" 0 (status_of resp)
      | None -> Alcotest.fail "daemon died after client disconnect");
      Client.close c2)

let test_backpressure () =
  with_server ~workers:1 ~max_queue:1 (fun addr ->
      let c = Client.connect addr in
      (* one slow job to occupy the single worker, then a burst: the
         queue holds one, the rest must be refused with status 6 *)
      for i = 0 to 11 do
        Client.send c
          (Json.Obj
             [
               ("id", Json.Str (Printf.sprintf "burst-%d" i));
               w "workload" "qaoa:Reg3-16";
               b "dump" false;
             ])
      done;
      Client.shutdown_send c;
      let statuses = ref [] in
      let rec collect () =
        match Client.recv c with
        | Some resp ->
          statuses := status_of resp :: !statuses;
          collect ()
        | None -> ()
      in
      collect ();
      Client.close c;
      Alcotest.(check int) "every request answered" 12 (List.length !statuses);
      let refused = List.length (List.filter (( = ) 6) !statuses) in
      let served = List.length (List.filter (( = ) 0) !statuses) in
      Alcotest.(check int) "refused + served = all" 12 (refused + served);
      Alcotest.(check bool) "backpressure engaged" true (refused > 0);
      Alcotest.(check bool) "still made progress" true (served > 0))

(* Seeded chaos worker faults inside the daemon: every response must
   still be a well-formed frame, and each job either completes
   bit-identically to the clean reference or fails closed with a
   structured pass error — nothing in between, and the daemon outlives
   all of it. *)
let test_chaos_worker_faults () =
  let fields =
    [ w "workload" "qaoa:Reg3-16"; ("domains", Json.Num 2.0); b "dump" false ]
  in
  let clean = semantics (reference_response fields) in
  let plan =
    match Chaos.parse "seed=1913,worker=0.35,alloc=0.2" with
    | Ok p -> p
    | Error e -> Alcotest.failf "chaos plan: %s" e
  in
  Fun.protect
    ~finally:(fun () -> Chaos.set_plan None)
    (fun () ->
      Chaos.set_plan (Some plan);
      with_server ~workers:2 (fun addr ->
          let jobs =
            List.init 30 (fun i -> (Printf.sprintf "chaos-%d" i, fields))
          in
          let results = run_jobs addr ~conns:3 jobs in
          Alcotest.(check int) "every chaos job answered" 30
            (Hashtbl.length results);
          let outcomes =
            List.map
              (fun (id, _) ->
                match Hashtbl.find_opt results id with
                | None -> Alcotest.failf "no response for %s" id
                | Some resp -> (id, resp))
              jobs
          in
          List.iter
            (fun (id, resp) ->
              match status_of resp with
              | 0 ->
                Alcotest.(check string)
                  (id ^ " identical to clean reference")
                  clean (semantics resp)
              | 1 -> (
                match field "error" resp with
                | Json.Obj _ -> ()
                | _ -> Alcotest.failf "%s failed without a structured error" id)
              | s -> Alcotest.failf "%s: unexpected status %d" id s)
            outcomes))

(* Budget isolation: a job carrying a deterministic expiry budget must
   never interrupt its neighbours — the ambient budget stack is
   domain-local, so a clean job racing a budget_checks job on the other
   worker stays bit-identical to its serial reference.  (This soak
   caught a real bug: a process-global stack let one job's budget fire
   inside another job's synthesis.) *)
let test_budget_isolation () =
  let clean_fields = [ w "workload" "qaoa:Reg3-16"; b "template" true; b "dump" false ] in
  let clean = semantics (reference_response clean_fields) in
  let budget_fields =
    [
      w "workload" "uccsd:LiH_frz_JW";
      w "topology" "heavy-hex";
      ("budget_checks", Json.Num 2.0);
      w "cache" "off";
      b "dump" false;
    ]
  in
  with_server ~workers:2 (fun addr ->
      let jobs =
        List.concat_map
          (fun r ->
            [
              (Printf.sprintf "budget#%d" r, budget_fields);
              (Printf.sprintf "clean#%d" r, clean_fields);
            ])
          (List.init 8 (fun r -> r))
      in
      let results = run_jobs addr ~conns:2 jobs in
      List.iter
        (fun (id, _) ->
          match Hashtbl.find_opt results id with
          | None -> Alcotest.failf "no response for %s" id
          | Some resp ->
            if String.length id >= 5 && String.sub id 0 5 = "clean" then
              Alcotest.(check string)
                (id ^ " untouched by the neighbour's budget")
                clean (semantics resp)
            else
              Alcotest.(check int)
                (id ^ " hit its own deadline") 5 (status_of resp))
        jobs)

(* --- ordering independence (qcheck) ------------------------------------- *)

(* The job set quantifies over every response class: clean compiles
   through different pipelines, a deterministic budget expiry
   (budget_checks + cache off, so checkpoint counts cannot depend on
   shared-cache hits), and a bad request. *)
let ordering_jobs =
  [
    ("a", [ w "workload" "heisenberg:4"; b "dump" false ]);
    ("b", [ w "workload" "tfim:4"; w "pipeline" "tket"; b "dump" false ]);
    ("c", [ w "workload" "tfim:4"; w "pipeline" "naive"; b "dump" false ]);
    ("d", [ w "hamiltonian" inline_ham; b "dump" false ]);
    ("e", [ w "workload" "heisenberg:4"; w "topology" "line"; b "dump" false ]);
    ( "f",
      [
        w "workload" "heisenberg:4";
        w "cache" "off";
        ("budget_checks", Json.Num 3.0);
        b "dump" false;
      ] );
    ("g", [ w "workload" "wat:9" ]);
    ("h", [ w "qasm" qasm_text; b "dump" false ]);
  ]

let ordering_reference =
  lazy
    (List.map
       (fun (id, fields) -> (id, semantics (reference_response fields)))
       ordering_jobs)

let shuffle seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prop_ordering_independence =
  Helpers.qtest ~count:12 "response semantics independent of interleaving"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, workers) ->
      let jobs = shuffle seed ordering_jobs in
      let results =
        with_server ~workers (fun addr ->
            run_jobs addr ~conns:(1 + (seed mod 3)) jobs)
      in
      List.for_all
        (fun (id, want) ->
          match Hashtbl.find_opt results id with
          | None -> false
          | Some resp -> String.equal want (semantics resp))
        (Lazy.force ordering_reference))

(* --- jobqueue ----------------------------------------------------------- *)

let test_jobqueue_bounds () =
  let q = Jobqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Jobqueue.push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Jobqueue.push q 2 = `Ok);
  Alcotest.(check bool) "push 3 refused" true (Jobqueue.push q 3 = `Full);
  Alcotest.(check int) "depth" 2 (Jobqueue.length q);
  Alcotest.(check bool) "pop 1" true (Jobqueue.pop q = Some 1);
  Alcotest.(check bool) "push 4 fits again" true (Jobqueue.push q 4 = `Ok);
  Jobqueue.close q;
  Alcotest.(check bool) "push after close" true (Jobqueue.push q 5 = `Closed);
  Alcotest.(check bool) "drain 2" true (Jobqueue.pop q = Some 2);
  Alcotest.(check bool) "drain 4" true (Jobqueue.pop q = Some 4);
  Alcotest.(check bool) "drained" true (Jobqueue.pop q = None);
  Alcotest.(check bool) "idempotent close" true
    (Jobqueue.close q;
     Jobqueue.pop q = None);
  Alcotest.check_raises "capacity >= 1" (Invalid_argument
     "Jobqueue.create: capacity must be >= 1") (fun () ->
      ignore (Jobqueue.create ~capacity:0))

let test_jobqueue_mpmc () =
  let q = Jobqueue.create ~capacity:1024 in
  let total = 400 in
  let producers =
    List.init 4 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to (total / 4) - 1 do
              let rec retry () =
                match Jobqueue.push q ((p * 1000) + i) with
                | `Ok -> ()
                | `Full ->
                  Thread.yield ();
                  retry ()
                | `Closed -> Alcotest.fail "closed while producing"
              in
              retry ()
            done)
          ())
  in
  let popped = Array.make 4 [] in
  let consumers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Jobqueue.pop q with
              | Some x -> loop (x :: acc)
              | None -> popped.(d) <- acc
            in
            loop []))
  in
  List.iter Thread.join producers;
  Jobqueue.close q;
  List.iter Domain.join consumers;
  let all = List.concat (Array.to_list popped) in
  Alcotest.(check int) "every item consumed once" total (List.length all);
  Alcotest.(check int) "no duplicates" total
    (List.length (List.sort_uniq compare all))

(* --- protocol parsing --------------------------------------------------- *)

let parse_ok line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error (_, msg) -> Alcotest.failf "parse %S: %s" line msg

let test_request_defaults () =
  match parse_ok "{\"workload\":\"tfim:3\"}" with
  | Protocol.Compile { spec; _ } ->
    Alcotest.(check string) "default pipeline" "phoenix" spec.Protocol.pipeline;
    Alcotest.(check string) "default topology" "all-to-all"
      spec.Protocol.topology;
    Alcotest.(check bool) "default dump" true spec.Protocol.dump;
    Alcotest.(check bool) "default cache mem" true
      (spec.Protocol.cache = Phoenix_cache.Cache.Mem);
    Alcotest.(check int) "default domains" 1 spec.Protocol.domains
  | _ -> Alcotest.fail "not a compile"

let test_request_id_recovery () =
  match Protocol.parse_request "{\"id\":77,\"workload\":\"wat:9\",\"isa\":\"z\"}"
  with
  | Error (id, _) ->
    Alcotest.(check (option int)) "id recovered from bad request" (Some 77)
      (Json.int id)
  | Ok _ -> Alcotest.fail "expected a parse rejection"

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3,\"x\"]";
      "{\"a\":{\"b\":[{}]},\"c\":\"\"}";
      "\"\\u00e9\\n\\\"\\\\\"";
      "1e-3";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok v -> (
        match Json.parse (Json.to_string v) with
        | Error e -> Alcotest.failf "reparse %S: %s" (Json.to_string v) e
        | Ok v' ->
          Alcotest.(check string) ("roundtrip " ^ s) (Json.to_string v)
            (Json.to_string v')))
    cases;
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{1:2}" ]

(* --- self test ---------------------------------------------------------- *)

let test_self_test () =
  Alcotest.(check bool) "self-test passes" true (Serve.self_test ~workers:2 ())

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip + rejects" `Quick test_json_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_request_defaults;
          Alcotest.test_case "id recovery" `Quick test_request_id_recovery;
        ] );
      ( "jobqueue",
        [
          Alcotest.test_case "bounds and drain" `Quick test_jobqueue_bounds;
          Alcotest.test_case "mpmc stress" `Quick test_jobqueue_mpmc;
        ] );
      ( "soak",
        [
          Alcotest.test_case "208 concurrent jobs == serial" `Slow test_soak;
          Alcotest.test_case "cache tiers agree" `Quick test_cache_tiers_agree;
        ] );
      ( "faults",
        [
          Alcotest.test_case "malformed lines" `Quick test_malformed_lines;
          Alcotest.test_case "error id echo" `Quick test_error_id_echo;
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "oversized payload" `Quick test_oversized_payload;
          Alcotest.test_case "disconnect mid-job" `Quick test_disconnect_mid_job;
          Alcotest.test_case "backpressure" `Quick test_backpressure;
          Alcotest.test_case "chaos worker faults" `Slow
            test_chaos_worker_faults;
          Alcotest.test_case "budget isolation across workers" `Quick
            test_budget_isolation;
        ] );
      ("ordering", [ prop_ordering_independence ]);
      ( "daemon",
        [ Alcotest.test_case "self-test" `Quick test_self_test ] );
    ]
