module Bsf = Phoenix_pauli.Bsf
module Angle = Phoenix_pauli.Angle
module Bitvec = Phoenix_util.Bitvec
module Chaos = Phoenix_util.Chaos
module Json = Phoenix_util.Json
module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Diag = Phoenix_verify.Diag

type tier = Off | Mem | Disk

type health = Full | Mem_only | No_cache

let health_to_string = function
  | Full -> "full"
  | Mem_only -> "mem-only"
  | No_cache -> "off"

let tier_of_string = function
  | "off" -> Some Off
  | "mem" | "memory" -> Some Mem
  | "disk" -> Some Disk
  | _ -> None

let tier_to_string = function Off -> "off" | Mem -> "mem" | Disk -> "disk"

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

type key = {
  k_digest : string;
  k_fingerprint : string;
  k_support : int array;
  k_relabel_safe : bool;
  k_width : int; (* qubits of the local register the entry's gates use *)
  k_slots : float array;
      (* The requester's slot angles in first-use row order — the same
         order the fingerprint's local slot ranks refer to.  Entries are
         stored with slot angles rewritten to those local ranks, and
         [expand] rewrites them back through this array, so parametric
         compiles hit across parameter values, sessions, and processes. *)
}

let key_of_terms ~exact ~sites terms =
  let k = Array.length sites in
  let bsf = Bsf.of_terms k terms in
  let support =
    Array.of_list (List.map (Array.get sites) (Bsf.support_indices bsf))
  in
  let relabel_safe =
    (* Replay onto another support is bit-identical only when the core
       order is: [Pauli_string.compare] reads bit-vector words from word
       0, so it is stable under relabelling only when every support
       index lives in the first word. *)
    Array.length support = 0
    || support.(Array.length support - 1) < Bitvec.bits_per_word
  in
  let form = Bsf.canonical_form bsf in
  {
    k_digest = Bsf.digest_of_canonical_form form;
    k_fingerprint = (if exact then "exact;" else "trot;") ^ form;
    k_support = support;
    k_relabel_safe = relabel_safe;
    k_width = k;
    k_slots = Bsf.slots bsf;
  }

let digest k = k.k_digest
let relabel_safe k = k.k_relabel_safe

(* An entry is hit-compatible when the ordered fingerprint (which folds in
   the exact-mode flag) matches and the replay is provably bit-identical:
   either the absolute support is the very same, or both sides are
   single-word relabel-safe. *)
let compatible ~fingerprint ~support ~safe key =
  String.equal fingerprint key.k_fingerprint
  && (support = key.k_support || (safe && key.k_relabel_safe))

(* ------------------------------------------------------------------ *)
(* Slot angles in canonical (rank) form                               *)
(* ------------------------------------------------------------------ *)

exception Unmappable

(* Stored entries are doubly canonical: qubits are the group's local
   ones (support ranks), and slot angles become their first-use rank in
   [k_slots] (each occurrence keeping its own sign bit).  Synthesis only
   ever negates or passes row angles through, and a fingerprint hit
   implies the requester's rows carry the same occurrence signs as the
   storer's, so replaying the stored sign bit onto the requester's slot
   id is exact. *)
let canonical_angle key =
  let ranks = Hashtbl.create 8 in
  Array.iteri
    (fun j a -> Hashtbl.replace ranks (Angle.slot_id a) j)
    key.k_slots;
  fun theta ->
    match Angle.view theta with
    | Angle.Const _ -> theta
    | Angle.Slot { id; negated } -> (
        match Hashtbl.find_opt ranks id with
        | Some j -> Angle.with_id ~negated j
        | None -> raise Unmappable)

let expand_angle key theta =
  match Angle.view theta with
  | Angle.Const _ -> theta
  | Angle.Slot { id = j; negated } ->
      if j >= Array.length key.k_slots then raise Unmappable;
      Angle.with_id ~negated (Angle.slot_id key.k_slots.(j))

(* Every gate is copied (the identity relabel) before it is stored:
   synthesis shares gate values between a ladder and its mirror, and
   [Marshal] would encode those as back-references.  Copied, an entry
   marshals to the bytes a relabel from register coordinates gave, so
   file contents and the [bytes] gauge do not depend on that sharing. *)
let canonical_gates key circuit =
  match
    Circuit.gates
      (Circuit.map_angles (canonical_angle key)
         (Circuit.map_qubits Fun.id circuit))
  with
  | gates -> Some gates
  | exception Unmappable -> None

(* Raises when a gate leaves the key's local register or a slot rank
   has no requester slot. *)
let expand key gates =
  Circuit.map_angles (expand_angle key) (Circuit.create key.k_width gates)

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  disk_hits : int;
  disk_errors : int;
  evictions : int;
  insertions : int;
  entries : int;
  bytes : int;
}

let diff later earlier =
  {
    hits = later.hits - earlier.hits;
    misses = later.misses - earlier.misses;
    disk_hits = later.disk_hits - earlier.disk_hits;
    disk_errors = later.disk_errors - earlier.disk_errors;
    evictions = later.evictions - earlier.evictions;
    insertions = later.insertions - earlier.insertions;
    entries = later.entries;
    bytes = later.bytes;
  }

let stats_json s =
  Json.Obj
    [
      ("hits", Json.Num (Float.of_int s.hits));
      ("misses", Json.Num (Float.of_int s.misses));
      ("disk_hits", Json.Num (Float.of_int s.disk_hits));
      ("disk_errors", Json.Num (Float.of_int s.disk_errors));
      ("evictions", Json.Num (Float.of_int s.evictions));
      ("insertions", Json.Num (Float.of_int s.insertions));
      ("entries", Json.Num (Float.of_int s.entries));
      ("bytes", Json.Num (Float.of_int s.bytes));
    ]

(* ------------------------------------------------------------------ *)
(* In-memory LRU tier                                                 *)
(* ------------------------------------------------------------------ *)

(* The memory table's buckets: the digest alone for relabel-safe keys,
   the digest and the absolute support otherwise.  A hit needs equal
   supports or two safe keys, and safety is a function of the support,
   so every compatible entry shares the requester's bucket; groups that
   can only hit their own support no longer pile into one bucket. *)
module Bucket = Hashtbl.Make (struct
  type t = string * int array

  let equal (d, s) (d', s') = String.equal d d' && s = s'
  let hash b = Hashtbl.hash_param 256 256 b
end)

let bucket_of key =
  (key.k_digest, if key.k_relabel_safe then [||] else key.k_support)

type entry = {
  e_bucket : Bucket.key;
  e_fingerprint : string;
  e_support : int array;
  e_relabel_safe : bool;
  e_gates : Gate.t list;
  e_bytes : int;
  mutable prev : entry option;
  mutable next : entry option;
}

let lock = Mutex.create ()
let table : entry list ref Bucket.t = Bucket.create 256
let lru_head : entry option ref = ref None
let lru_tail : entry option ref = ref None
let total_bytes = ref 0
let total_entries = ref 0
let c_hits = ref 0
let c_misses = ref 0
let c_disk_hits = ref 0
let c_disk_errors = ref 0
let c_evictions = ref 0
let c_insertions = ref 0

(* The cache's own degradation ladder (disk -> mem -> off): a burst of
   consecutive disk faults parks the persistent tier rather than paying
   a failing I/O round-trip per group.  One success resets the streak;
   [reset_health] re-arms the tier (a new job may have a new cache dir).
   All transitions happen under the lock. *)
let health_ref = ref Full
let consec_disk_errors = ref 0
let disk_error_threshold = 3

(* Caller holds the lock. *)
let note_disk_error_locked () =
  incr c_disk_errors;
  incr consec_disk_errors;
  if !health_ref = Full && !consec_disk_errors >= disk_error_threshold then
    health_ref := Mem_only

(* Caller holds the lock. *)
let note_disk_ok_locked () = consec_disk_errors := 0

let effective_tier tier h =
  match (tier, h) with
  | Off, _ -> Off
  | _, No_cache -> Off
  | Disk, Mem_only -> Mem
  | t, (Full | Mem_only) -> t

let default_budget = 64 * 1024 * 1024

let budget_ref =
  ref
    (match Sys.getenv_opt "PHOENIX_CACHE_BUDGET" with
    | Some s -> ( match int_of_string_opt s with Some b when b > 0 -> b | _ -> default_budget)
    | None -> default_budget)

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let unlink e =
  (match e.prev with Some p -> p.next <- e.next | None -> lru_head := e.next);
  (match e.next with Some s -> s.prev <- e.prev | None -> lru_tail := e.prev);
  e.prev <- None;
  e.next <- None

let push_front e =
  e.prev <- None;
  e.next <- !lru_head;
  (match !lru_head with Some h -> h.prev <- Some e | None -> lru_tail := Some e);
  lru_head := Some e

let touch e =
  unlink e;
  push_front e

let drop_from_table e =
  match Bucket.find_opt table e.e_bucket with
  | None -> ()
  | Some cell ->
      cell := List.filter (fun x -> x != e) !cell;
      if !cell = [] then Bucket.remove table e.e_bucket

let evict_to_budget () =
  let continue = ref true in
  while !continue do
    match !lru_tail with
    | Some e when !total_bytes > !budget_ref ->
        unlink e;
        drop_from_table e;
        total_bytes := !total_bytes - e.e_bytes;
        decr total_entries;
        incr c_evictions
    | _ -> continue := false
  done

(* Caller holds the lock. *)
let find_entry bucket key =
  match Bucket.find_opt table bucket with
  | None -> None
  | Some cell ->
      List.find_opt
        (fun e ->
          compatible ~fingerprint:e.e_fingerprint ~support:e.e_support
            ~safe:e.e_relabel_safe key)
        !cell

(* Caller holds the lock. *)
let insert_entry key gates bytes =
  let bucket = bucket_of key in
  match find_entry bucket key with
  | Some _ -> false
  | None ->
      let e =
        {
          e_bucket = bucket;
          e_fingerprint = key.k_fingerprint;
          e_support = key.k_support;
          e_relabel_safe = key.k_relabel_safe;
          e_gates = gates;
          e_bytes = bytes;
          prev = None;
          next = None;
        }
      in
      let cell =
        match Bucket.find_opt table bucket with
        | Some c -> c
        | None ->
            let c = ref [] in
            Bucket.add table bucket c;
            c
      in
      cell := e :: !cell;
      push_front e;
      total_bytes := !total_bytes + bytes;
      incr total_entries;
      incr c_insertions;
      evict_to_budget ();
      true

let stats () =
  with_lock (fun () ->
      {
        hits = !c_hits;
        misses = !c_misses;
        disk_hits = !c_disk_hits;
        disk_errors = !c_disk_errors;
        evictions = !c_evictions;
        insertions = !c_insertions;
        entries = !total_entries;
        bytes = !total_bytes;
      })

let reset_stats () =
  with_lock (fun () ->
      c_hits := 0;
      c_misses := 0;
      c_disk_hits := 0;
      c_disk_errors := 0;
      c_evictions := 0;
      c_insertions := 0)

let health () = with_lock (fun () -> !health_ref)

let reset_health () =
  with_lock (fun () ->
      health_ref := Full;
      consec_disk_errors := 0)

let budget () = with_lock (fun () -> !budget_ref)

let set_budget b =
  with_lock (fun () ->
      budget_ref := max 1 b;
      evict_to_budget ())

let clear_memory () =
  with_lock (fun () ->
      Bucket.reset table;
      lru_head := None;
      lru_tail := None;
      total_bytes := 0;
      total_entries := 0)

(* ------------------------------------------------------------------ *)
(* Persistent tier                                                    *)
(* ------------------------------------------------------------------ *)

let dir () =
  match Sys.getenv_opt "PHOENIX_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "phoenix"
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              Filename.concat (Filename.concat h ".cache") "phoenix"
          | _ -> "_phoenix_cache"))

module Persist = struct
  let format_version = "phoenix-cache-v1"
  let suffix = ".pxc"

  type entry_info = {
    fingerprint : string;
    support : int array;
    relabel_safe : bool;
    gates : Gate.t list;
    bytes : int;
  }

  (* The marshalled payload.  Separate from [entry_info] so the on-disk
     layout is pinned independently of the reporting record. *)
  type payload = {
    p_fingerprint : string;
    p_support : int array;
    p_relabel_safe : bool;
    p_gates : Gate.t list;
  }

  let rec ensure_dir d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then (
      ensure_dir (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

  (* One file per (digest, variant): relabel-safe entries share a single
     variant; support-pinned entries get one per absolute support, so a
     requester's key always determines its file name. *)
  let file_basename key =
    let variant =
      Digest.to_hex
        (Digest.string
           (key.k_fingerprint
           ^
           if key.k_relabel_safe then "|safe"
           else
             "|"
             ^ String.concat ","
                 (List.map string_of_int (Array.to_list key.k_support))))
    in
    key.k_digest ^ "-" ^ String.sub variant 0 16 ^ suffix

  let path_of_key key = Filename.concat (dir ()) (file_basename key)

  let digest_of_file path =
    let base = Filename.basename path in
    match String.index_opt base '-' with
    | Some i when i = 32 -> Some (String.sub base 0 i)
    | _ -> None

  let list_files ?dir:(d = dir ()) () =
    match Sys.readdir d with
    | exception Sys_error _ -> []
    | names ->
        let files =
          Array.to_list names
          |> List.filter (fun f -> Filename.check_suffix f suffix)
          |> List.map (Filename.concat d)
        in
        List.sort String.compare files

  let read_file path =
    match open_in_bin path with
    | exception Sys_error msg -> Error ("unreadable: " ^ msg)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match input_line ic with
            | exception End_of_file -> Error "truncated: missing version line"
            | version when version <> format_version ->
                Error
                  (Printf.sprintf "version mismatch: %S (want %S)" version
                     format_version)
            | _ -> (
                match input_line ic with
                | exception End_of_file ->
                    Error "truncated: missing checksum line"
                | checksum -> (
                    let len = in_channel_length ic - pos_in ic in
                    match really_input_string ic len with
                    | exception End_of_file -> Error "truncated: short payload"
                    | payload ->
                        if Digest.to_hex (Digest.string payload) <> checksum
                        then Error "checksum mismatch"
                        else (
                          match (Marshal.from_string payload 0 : payload) with
                          | exception _ -> Error "unreadable payload"
                          | p ->
                              Ok
                                {
                                  fingerprint = p.p_fingerprint;
                                  support = p.p_support;
                                  relabel_safe = p.p_relabel_safe;
                                  gates = p.p_gates;
                                  bytes = String.length payload;
                                }))))

  (* Testing hook: take the cross-filesystem fallback path even when the
     rename would have succeeded. *)
  let force_exdev = ref false

  (* Chaos corruption of the staged bytes, pre-publish: a truncation or a
     flipped payload byte, both of which the checksum/version validation
     in [read_file] must catch on the next read. *)
  let chaos_corrupt tmp =
    if Chaos.fire Chaos.Cache_truncate then
      Unix.truncate tmp ((Unix.stat tmp).Unix.st_size / 2)
    else if Chaos.fire Chaos.Cache_flip then begin
      let fd = Unix.openfile tmp [ Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let len = (Unix.fstat fd).Unix.st_size in
          if len > 0 then begin
            ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
            let b = Bytes.create 1 in
            ignore (Unix.read fd b 0 1);
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
            ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1)
          end)
    end

  (* Fallback commit for when the staging file and the cache directory
     sit on different filesystems (rename fails with EXDEV, e.g. tmpfs
     TMPDIR vs a persistent PHOENIX_CACHE_DIR): copy into the
     destination directory, fsync, and rename within that directory —
     readers still only ever observe complete entries. *)
  let copy_then_rename tmp path =
    let local = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
    let ic = open_in_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let oc = open_out_bin local in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            let buf = Bytes.create 65536 in
            let rec loop () =
              let k = input ic buf 0 (Bytes.length buf) in
              if k > 0 then begin
                output oc buf 0 k;
                loop ()
              end
            in
            loop ();
            flush oc;
            Unix.fsync (Unix.descr_of_out_channel oc)));
    Unix.rename local path

  (* Single-writer commit: the payload is staged in a process-private temp
     file and published with an atomic rename, so concurrent readers only
     ever observe complete entries.  Racing writers of the same key stage
     byte-identical payloads, so either rename wins harmlessly. *)
  let write path payload =
    ensure_dir (Filename.dirname path);
    let tmp = Filename.temp_file "phoenix-cache" ".staging" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc format_version;
            output_char oc '\n';
            output_string oc (Digest.to_hex (Digest.string payload));
            output_char oc '\n';
            output_string oc payload);
        chaos_corrupt tmp;
        if !force_exdev then copy_then_rename tmp path
        else
          try Unix.rename tmp path
          with Unix.Unix_error (Unix.EXDEV, _, _) -> copy_then_rename tmp path)

  let disk_bytes ?dir () =
    List.fold_left
      (fun acc f ->
        match (Unix.stat f).Unix.st_size with
        | size -> acc + size
        | exception Unix.Unix_error _ -> acc)
      0
      (list_files ?dir ())

  let clear ?dir () =
    List.fold_left
      (fun acc f ->
        match Sys.remove f with
        | () -> acc + 1
        | exception Sys_error _ -> acc)
      0
      (list_files ?dir ())
end

(* ------------------------------------------------------------------ *)
(* Lookup / store                                                     *)
(* ------------------------------------------------------------------ *)

let warn record fmt =
  Printf.ksprintf
    (fun msg ->
      match record with
      | Some f -> f (Diag.make ~pass:"cache" Diag.Warning msg)
      | None -> ())
    fmt

let lookup ?record ~tier key =
  match effective_tier tier (health ()) with
  | Off -> None
  | (Mem | Disk) as tier -> (
      let mem_hit =
        with_lock (fun () ->
            match find_entry (bucket_of key) key with
            | Some e ->
                touch e;
                incr c_hits;
                Some e.e_gates
            | None -> None)
      in
      match mem_hit with
      | Some gates -> Some (expand key gates)
      | None when tier = Mem ->
          with_lock (fun () -> incr c_misses);
          None
      | None -> (
          let path = Persist.path_of_key key in
          if not (Sys.file_exists path) then (
            with_lock (fun () -> incr c_misses);
            None)
          else
            match Persist.read_file path with
            | Error msg ->
                with_lock (fun () ->
                    incr c_misses;
                    note_disk_error_locked ());
                warn record "skipping corrupt cache entry %s: %s"
                  (Filename.basename path) msg;
                None
            | Ok info
              when not
                     (compatible ~fingerprint:info.Persist.fingerprint
                        ~support:info.Persist.support
                        ~safe:info.Persist.relabel_safe key) ->
                (* Address collision or an entry persisted for an
                   incompatible support: valid file, but not replayable
                   here.  Silent miss. *)
                with_lock (fun () ->
                    incr c_misses;
                    note_disk_ok_locked ());
                None
            | Ok info -> (
                match expand key info.Persist.gates with
                | circuit ->
                    with_lock (fun () ->
                        ignore
                          (insert_entry key info.Persist.gates
                             info.Persist.bytes);
                        incr c_hits;
                        incr c_disk_hits;
                        note_disk_ok_locked ());
                    Some circuit
                | exception _ ->
                    with_lock (fun () ->
                        incr c_misses;
                        note_disk_error_locked ());
                    warn record
                      "skipping cache entry %s: gates do not fit the \
                       requesting group"
                      (Filename.basename path);
                    None)))

let store ?record ~tier key circuit =
  match effective_tier tier (health ()) with
  | Off -> ()
  | (Mem | Disk) as tier -> (
      match canonical_gates key circuit with
      | None -> ()
      | Some gates ->
          let payload =
            Marshal.to_string
              {
                Persist.p_fingerprint = key.k_fingerprint;
                p_support = key.k_support;
                p_relabel_safe = key.k_relabel_safe;
                p_gates = gates;
              }
              []
          in
          let fresh =
            with_lock (fun () -> insert_entry key gates (String.length payload))
          in
          if fresh && tier = Disk then (
            match Persist.write (Persist.path_of_key key) payload with
            | () -> with_lock note_disk_ok_locked
            | exception (Sys_error msg | Unix.Unix_error (_, msg, _)) ->
              with_lock (fun () -> note_disk_error_locked ());
              warn record "could not persist cache entry: %s" msg))

module Testing = struct
  let force_health h =
    with_lock (fun () ->
        health_ref := h;
        consec_disk_errors := 0)

  let trip_disk_errors k =
    with_lock (fun () ->
        for _ = 1 to k do
          note_disk_error_locked ()
        done)

  let set_force_exdev b = Persist.force_exdev := b
  let disk_error_threshold = disk_error_threshold

  let bucket_length key =
    with_lock (fun () ->
        match Bucket.find_opt table (bucket_of key) with
        | Some cell -> List.length !cell
        | None -> 0)
end
