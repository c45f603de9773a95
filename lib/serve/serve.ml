module Cache = Phoenix_cache.Cache
module Pass = Phoenix.Pass
open Protocol

type addr = Unix_socket of string | Tcp of string * int

type config = {
  addr : addr;
  workers : int;
  max_queue : int;
  default_timeout_s : float option;
  max_request_bytes : int;
}

let default_config addr =
  {
    addr;
    workers = 4;
    max_queue = 64;
    default_timeout_s = None;
    max_request_bytes = 8 * 1024 * 1024;
  }

(* --- connections -------------------------------------------------------

   A connection outlives its reader thread: queued jobs hold a
   reference and write their responses later, from worker domains.  The
   fd closes exactly once, when the reader has seen EOF (or given up)
   AND no queued job remains — whichever side finishes last closes. *)

type conn = {
  fd : Unix.file_descr;
  cm : Mutex.t;
  mutable writable : bool;  (** false after a write error (EPIPE, ...) *)
  mutable eof : bool;  (** reader is done with this connection *)
  mutable pending : int;  (** jobs queued or running for this connection *)
  mutable fd_closed : bool;
}

let make_conn fd =
  { fd; cm = Mutex.create (); writable = true; eof = false; pending = 0;
    fd_closed = false }

(* with [c.cm] held *)
let maybe_close_locked c =
  if c.eof && c.pending = 0 && not c.fd_closed then begin
    c.fd_closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let with_conn c f =
  Mutex.lock c.cm;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.cm) f

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_response c json =
  let line = Json.to_string json ^ "\n" in
  with_conn c (fun () ->
      if c.writable && not c.fd_closed then
        try write_all c.fd line
        with Unix.Unix_error _ | Sys_error _ -> c.writable <- false)

(* --- the server --------------------------------------------------------- *)

type job = { id : Json.t; spec : Protocol.compile_spec; conn : conn }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  tcp_port : int option;
  queue : job Jobqueue.t;
  mutable workers : unit Domain.t list;
  mutable accept_thread : Thread.t option;
  mutable draining : bool;
  mutable drained : bool;
  sm : Mutex.t;  (** guards the stats below *)
  mutable jobs_served : int;  (** compile jobs that ran on a worker *)
  status_counts : int array;  (** responses by status code, 0..6 *)
  pass_seconds : (string, float * int) Hashtbl.t;
}

let port t = t.tcp_port

let record_job t status trace =
  Mutex.lock t.sm;
  t.jobs_served <- t.jobs_served + 1;
  t.status_counts.(Protocol.status_code status) <-
    t.status_counts.(Protocol.status_code status) + 1;
  List.iter
    (fun (e : Pass.trace_entry) ->
      let s, n =
        Option.value
          (Hashtbl.find_opt t.pass_seconds e.Pass.pass)
          ~default:(0.0, 0)
      in
      Hashtbl.replace t.pass_seconds e.Pass.pass
        (s +. e.Pass.seconds, n + 1))
    trace;
  Mutex.unlock t.sm

let record_reply t status =
  Mutex.lock t.sm;
  t.status_counts.(Protocol.status_code status) <-
    t.status_counts.(Protocol.status_code status) + 1;
  Mutex.unlock t.sm

let stats_response t ~id =
  Mutex.lock t.sm;
  let served = t.jobs_served in
  let counts = Array.copy t.status_counts in
  let passes =
    Hashtbl.fold (fun pass (s, n) acc -> (pass, s, n) :: acc) t.pass_seconds []
  in
  Mutex.unlock t.sm;
  let passes =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) passes
  in
  let statuses = [ Sok; Sfailed; Sbad_request; Sverify_errors; Slint_errors;
                   Sdeadline; Soverloaded ] in
  ok_response ~id ~status:Sok
    [
      ( "stats",
        Json.Obj
          [
            ("schema", Json.Str stats_schema);
            ("jobs_served", Json.Num (Float.of_int served));
            ( "responses_by_status",
              Json.Obj
                (List.map
                   (fun s ->
                     ( status_name s,
                       Json.Num (Float.of_int counts.(status_code s)) ))
                   statuses) );
            ( "queue",
              Json.Obj
                [
                  ( "depth",
                    Json.Num (Float.of_int (Jobqueue.length t.queue)) );
                  ( "capacity",
                    Json.Num (Float.of_int (Jobqueue.capacity t.queue)) );
                ] );
            ("workers", Json.Num (Float.of_int t.config.workers));
            ("draining", Json.Bool t.draining);
            ("cache", Cache.stats_json (Cache.stats ()));
            ( "passes",
              Json.Arr
                (List.map
                   (fun (pass, s, n) ->
                     Json.Obj
                       [
                         ("pass", Json.Str pass);
                         ("calls", Json.Num (Float.of_int n));
                         ("seconds", Json.Num s);
                       ])
                   passes) );
          ] );
    ]

(* --- workers ------------------------------------------------------------ *)

let worker_loop t () =
  let rec loop () =
    match Jobqueue.pop t.queue with
    | None -> ()
    | Some job ->
      let outcome =
        try Handler.execute ?default_timeout_s:t.config.default_timeout_s
              job.spec
        with exn ->
          {
            Handler.status = Sfailed;
            fields = [];
            error = Some ("worker fault: " ^ Printexc.to_string exn);
            trace = [];
          }
      in
      record_job t outcome.Handler.status outcome.Handler.trace;
      send_response job.conn (Handler.response ~id:job.id outcome);
      with_conn job.conn (fun () ->
          job.conn.pending <- job.conn.pending - 1;
          maybe_close_locked job.conn);
      loop ()
  in
  loop ()

(* --- readers ------------------------------------------------------------ *)

let handle_line t c line =
  let line = String.trim line in
  if line <> "" then
    match Protocol.parse_request line with
    | Error (id, msg) ->
      record_reply t Sbad_request;
      send_response c (error_response ~id ~status:Sbad_request msg)
    | Ok (Ping { id }) ->
      record_reply t Sok;
      send_response c (ok_response ~id ~status:Sok [ ("pong", Json.Bool true) ])
    | Ok (Stats { id }) ->
      record_reply t Sok;
      send_response c (stats_response t ~id)
    | Ok (Compile { id; spec }) -> (
      with_conn c (fun () -> c.pending <- c.pending + 1);
      let reject msg =
        with_conn c (fun () -> c.pending <- c.pending - 1);
        record_reply t Soverloaded;
        send_response c (error_response ~id ~status:Soverloaded msg)
      in
      match Jobqueue.push t.queue { id; spec; conn = c } with
      | `Ok -> ()
      | `Full ->
        reject
          (Printf.sprintf "job queue full (capacity %d); retry later"
             (Jobqueue.capacity t.queue))
      | `Closed -> reject "server is draining; no new jobs accepted")

(* Reads one connection until EOF, slicing the byte stream into request
   lines.  A line longer than [max_request_bytes] gets one structured
   error, then the connection is dropped: there is no way to resync an
   NDJSON stream mid-line without buffering it. *)
let reader_loop t c () =
  let chunk = Bytes.create 65536 in
  let acc = Buffer.create 256 in
  let overflow () =
    record_reply t Sbad_request;
    send_response c
      (error_response ~id:Json.Null ~status:Sbad_request
         (Printf.sprintf "request line exceeds %d bytes"
            t.config.max_request_bytes))
  in
  let rec drain_lines () =
    let s = Buffer.contents acc in
    match String.index_opt s '\n' with
    | None ->
      if String.length s > t.config.max_request_bytes then begin
        overflow ();
        false
      end
      else true
    | Some i ->
      Buffer.clear acc;
      Buffer.add_substring acc s (i + 1) (String.length s - i - 1);
      if String.length s > t.config.max_request_bytes then begin
        (* the line itself is oversized even though it terminated *)
        overflow ();
        false
      end
      else begin
        handle_line t c (String.sub s 0 i);
        drain_lines ()
      end
  in
  let rec loop () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes acc chunk 0 n;
      if drain_lines () then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | exception Sys_error _ -> ()
  in
  loop ();
  with_conn c (fun () ->
      c.eof <- true;
      maybe_close_locked c)

(* --- accept loop -------------------------------------------------------- *)

let accept_loop t () =
  let rec loop () =
    if not t.draining then
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ ->
          let c = make_conn fd in
          ignore (Thread.create (reader_loop t c) ());
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error _ -> loop ())
      | exception Unix.Unix_error _ -> ()
  in
  loop ()

(* --- lifecycle ---------------------------------------------------------- *)

let listen_socket = function
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, None)
  | Tcp (host, port) ->
    let inet =
      if host = "localhost" then Unix.inet_addr_loopback
      else Unix.inet_addr_of_string host
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Some actual)

let start (config : config) =
  if config.workers < 1 then invalid_arg "Serve.start: workers must be >= 1";
  if config.max_request_bytes < 2 then
    invalid_arg "Serve.start: max_request_bytes must be >= 2";
  (* writing to a disconnected client must surface as EPIPE, not a
     process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, tcp_port = listen_socket config.addr in
  let t =
    {
      config;
      listen_fd;
      tcp_port;
      queue = Jobqueue.create ~capacity:config.max_queue;
      workers = [];
      accept_thread = None;
      draining = false;
      drained = false;
      sm = Mutex.create ();
      jobs_served = 0;
      status_counts = Array.make 7 0;
      pass_seconds = Hashtbl.create 16;
    }
  in
  t.workers <- List.init config.workers (fun _ -> Domain.spawn (worker_loop t));
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let drain t =
  if not t.drained then begin
    t.drained <- true;
    t.draining <- true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Jobqueue.close t.queue;
    List.iter Domain.join t.workers;
    match t.config.addr with
    | Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

let addr_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  let err () =
    Error (Printf.sprintf "bad address %S (unix:PATH or tcp:HOST:PORT)" s)
  in
  match String.index_opt s ':' with
  | None -> err ()
  | Some i -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.sub s 0 i with
    | "unix" when rest <> "" -> Ok (Unix_socket rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> err ()
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when host <> "" && p >= 1 && p <= 65535 -> Ok (Tcp (host, p))
        | _ -> err ()))
    | _ -> err ())

let run config =
  let t = start config in
  let shown =
    match (config.addr, t.tcp_port) with
    | Tcp (host, _), Some p -> addr_to_string (Tcp (host, p))
    | addr, _ -> addr_to_string addr
  in
  Printf.printf "phoenix serve: listening on %s (%d workers, queue %d)\n%!"
    shown config.workers config.max_queue;
  let stop = ref false in
  let request_stop _ = stop := true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  while not !stop do
    Thread.delay 0.1
  done;
  Printf.printf "phoenix serve: draining (%d queued)\n%!"
    (Jobqueue.length t.queue);
  drain t;
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  Mutex.lock t.sm;
  let served = t.jobs_served in
  Mutex.unlock t.sm;
  Printf.printf "phoenix serve: drained after %d job(s)\n%!" served

(* --- client ------------------------------------------------------------- *)

module Client = struct
  type nonrec conn = {
    fd : Unix.file_descr;
    buf : Buffer.t;  (** bytes read past the last returned line *)
  }

  let connect addr =
    match addr with
    | Unix_socket path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      { fd; buf = Buffer.create 4096 }
    | Tcp (host, port) ->
      let inet =
        if host = "localhost" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (inet, port));
      { fd; buf = Buffer.create 4096 }

  let send_raw c s = write_all c.fd s
  let send_line c s = send_raw c (s ^ "\n")
  let send c json = send_line c (Json.to_string json)

  let shutdown_send c =
    try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

  let recv_line c =
    let chunk = Bytes.create 65536 in
    let rec take () =
      let s = Buffer.contents c.buf in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)
      | None -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes c.buf chunk 0 n;
          take ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          None)
    in
    take ()

  let recv c =
    match recv_line c with
    | None -> None
    | Some line -> (
      match Json.parse line with
      | Ok j -> Some j
      | Error msg ->
        failwith
          (Printf.sprintf "phoenix serve emitted unparseable JSON (%s): %s"
             msg line))

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end

(* --- self test ---------------------------------------------------------- *)

let self_test ?(workers = 2) () =
  let path = Filename.temp_file "phxserve" ".sock" in
  Sys.remove path;
  let config =
    { (default_config (Unix_socket path)) with workers; max_queue = 8 }
  in
  let t = start config in
  let failures = ref [] in
  let check name cond = if not cond then failures := name :: !failures in
  let expect_status c name want =
    match Client.recv c with
    | None -> check (name ^ ": connection closed") false
    | Some resp ->
      let got = Json.int (Option.value (Json.mem "status" resp) ~default:Json.Null) in
      check
        (Printf.sprintf "%s: status %s, want %d" name
           (match got with Some g -> string_of_int g | None -> "?")
           (status_code want))
        (got = Some (status_code want))
  in
  (try
     let c = Client.connect (Unix_socket path) in
     Client.send c (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "p") ]);
     expect_status c "ping" Sok;
     Client.send c
       (Json.Obj
          [
            ("id", Json.Str "c1");
            ("workload", Json.Str "heisenberg:4");
            ("dump", Json.Bool false);
          ]);
     expect_status c "compile" Sok;
     Client.send c
       (Json.Obj
          [
            ("id", Json.Str "t1");
            ("workload", Json.Str "tfim:4");
            ("template", Json.Bool true);
            ("binds", Json.Arr [ Json.Arr [] ]);
            ("dump", Json.Bool false);
          ]);
     (* tfim:4 records no blocks -> one parameter per gadget; an empty
        bind vector is an arity error -> bad request, structured *)
     expect_status c "template arity" Sbad_request;
     Client.send_line c "this is not json";
     expect_status c "malformed" Sbad_request;
     Client.send c (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Str "s") ]);
     expect_status c "stats" Sok;
     Client.close c
   with exn -> check ("self-test raised " ^ Printexc.to_string exn) false);
  drain t;
  List.iter (fun f -> Printf.eprintf "phoenix serve --self-test: %s\n" f)
    (List.rev !failures);
  !failures = []
