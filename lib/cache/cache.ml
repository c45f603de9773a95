module Bsf = Phoenix_pauli.Bsf
module Angle = Phoenix_pauli.Angle
module Pauli_string = Phoenix_pauli.Pauli_string
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

(* The disk tier's textual address: the MD5 digest of the row-sorted
   canonical form, the ordered fingerprint behind the mode prefix, and
   the rows' width (the support size, 0 for identity-only rows). *)
type text = { digest : string; fingerprint : string; width : int }

(* The memory tier's address: the packed fingerprint, with its hash
   computed once. *)
type bucket = { b_hash : int; b_packed : string }

type key = {
  k_bucket : bucket;
  k_exact : bool;
  k_terms : (Pauli_string.t * float) list; (* on the k local qubits *)
  k_width : int; (* qubits of the local register the entry's gates use *)
  k_slots : int array;
      (* The requester's slot ids in first-use row order — the order the
         fingerprints' local slot ranks refer to.  Entries are stored
         with slot angles rewritten to those local ranks, and [expand]
         rewrites them back through this array, so parametric compiles
         hit across parameter values, sessions, and processes. *)
  mutable k_text : text option; (* built once, for the disk tier *)
}

let bytes_per_word = Sys.word_size / 8
let header_words = 3

(* The slot ids of [terms] in first-use order, and each one's rank. *)
let slot_ranks terms =
  if not (List.exists (fun (_, theta) -> Angle.is_slot theta) terms) then
    (None, [||])
  else
    let ranks = Hashtbl.create 8 and ids = ref [] in
    List.iter
      (fun (_, theta) ->
        if Angle.is_slot theta then
          let id = Angle.slot_id theta in
          if not (Hashtbl.mem ranks id) then (
            Hashtbl.add ranks id (Hashtbl.length ranks);
            ids := id :: !ids))
      terms;
    (Some ranks, Array.of_list (List.rev !ids))

let rec pack_rows b ~words ~union ~ranks off = function
  | [] -> ()
  | (p, theta) :: rest ->
      let wpr = Array.length union in
      Pauli_string.blit_bits_to p ~x_dst:words ~x_off:0 ~z_dst:words
        ~z_off:wpr;
      for w = 0 to (2 * wpr) - 1 do
        Bytes.set_int64_ne b (off + (8 * w)) (Int64.of_int words.(w))
      done;
      for w = 0 to wpr - 1 do
        union.(w) <- union.(w) lor words.(w) lor words.(wpr + w)
      done;
      let theta =
        match ranks with
        | Some ranks when Angle.is_slot theta -> (
            match Angle.view theta with
            | Angle.Slot { id; negated } ->
                Angle.with_id ~negated (Hashtbl.find ranks id)
            | Angle.Const _ -> theta)
        | _ -> theta
      in
      Bytes.set_int64_ne b (off + (16 * wpr)) (Int64.bits_of_float theta);
      pack_rows b ~words ~union ~ranks (off + (8 * ((2 * wpr) + 1))) rest

(* The packed fingerprint of [terms], strings over [k] qubits: three
   header words (the exact flag, k, the row count), then per row its x
   and z words and its angle's 64 bits.  A const angle gives its IEEE
   bits; a slot gives its first-use rank NaN-boxed the way
   [Angle.with_id] does it, sign bit included, so it never equals a
   const.  Every field has a fixed width, so two packed forms are equal
   exactly when the rows' Pauli letters, angles and slot ranks are —
   when the textual fingerprints are, for terms on their own support.
   Leaves the union of the rows' supports in [union]. *)
let pack ~exact ~ranks k terms union =
  let wpr = Array.length union and rows = List.length terms in
  let b = Bytes.create (8 * (header_words + (rows * ((2 * wpr) + 1)))) in
  Bytes.set_int64_ne b 0 (if exact then 1L else 0L);
  Bytes.set_int64_ne b 8 (Int64.of_int k);
  Bytes.set_int64_ne b 16 (Int64.of_int rows);
  pack_rows b ~words:(Array.make (2 * wpr) 0) ~union ~ranks (8 * header_words) terms;
  Bytes.unsafe_to_string b

(* In the simplify pass [k] is the group's union support, so every
   local qubit is in the support and the rows pack as they are.  An
   identity-only group packs as zero-qubit rows, as [Bsf.canonical_form]
   projects it, since its circuit is empty on any register. *)
let key_of_terms ~exact k terms =
  let ranks, slots = slot_ranks terms in
  let union = Array.make (Bitvec.word_count k) 0 in
  let packed = pack ~exact ~ranks k terms union in
  let packed =
    match Array.fold_left (fun acc x -> acc + Bitvec.popcount_word x) 0 union with
    | w when w = k -> packed
    | 0 ->
        pack ~exact ~ranks 0
          (List.map (fun (p, a) -> (Pauli_string.restrict p [||], a)) terms)
          (Array.make (Bitvec.word_count 0) 0)
    | _ -> invalid_arg "Cache.key_of_terms: a local qubit outside the terms' support"
  in
  {
    k_bucket = { b_hash = Hashtbl.hash packed; b_packed = packed };
    k_exact = exact;
    k_terms = terms;
    k_width = k;
    k_slots = slots;
    k_text = None;
  }

let text key =
  match key.k_text with
  | Some t -> t
  | None ->
      let tableau = Bsf.of_terms key.k_width key.k_terms in
      let form = Bsf.canonical_form tableau in
      let t =
        {
          digest = Bsf.digest_of_canonical_form form;
          fingerprint = (if key.k_exact then "exact;" else "trot;") ^ form;
          width = Bitvec.popcount (Bsf.support tableau);
        }
      in
      key.k_text <- Some t;
      t

let digest key = (text key).digest

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
  Array.iteri (fun j id -> Hashtbl.replace ranks id j) key.k_slots;
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
      Angle.with_id ~negated key.k_slots.(j)

(* The memory tier keeps the synthesized gates themselves: gates are
   immutable and already on the local qubits, so only slot angles are
   rewritten, and only when the key has slots.  The disk tier copies
   every gate (the identity relabel) first: synthesis shares gate values
   between a ladder and its mirror, and [Marshal] would encode those as
   back-references.  Copied, an entry marshals to the bytes a relabel
   from register coordinates gave, so file contents do not depend on
   that sharing. *)
let canonical_gates ~copy key circuit =
  if (not copy) && Array.length key.k_slots = 0 then Some (Circuit.gates circuit)
  else
    let c = if copy then Circuit.map_qubits Fun.id circuit else circuit in
    match Circuit.gates (Circuit.map_angles (canonical_angle key) c) with
    | gates -> Some gates
    | exception Unmappable -> None

(* Raises when a gate leaves the key's local register or a slot rank
   has no requester slot. *)
let expand key gates =
  Circuit.map_angles (expand_angle key) (Circuit.create key.k_width gates)

(* Heap words of one stored gate as a tree, its list cell included: a
   block is a header word plus one word per field, and a float argument
   is a block of its own. *)
let rec gate_words (g : Gate.t) =
  3
  +
  match g with
  | Gate.G1 ((Gate.Rx _ | Gate.Ry _ | Gate.Rz _), _) -> 3 + 2 + 2
  | Gate.G1 (_, _) | Gate.Cnot _ | Gate.Swap _ -> 3
  | Gate.Cliff2 _ -> 2 + 4
  | Gate.Rpp _ -> 6 + 2
  | Gate.Su4 { parts; _ } ->
      4 + List.fold_left (fun acc g -> acc + gate_words g) 0 parts

(* What an entry holds, in bytes: the packed fingerprint and the gates.
   The same count for entries stored here and entries read from disk. *)
let entry_bytes key gates =
  let string_words =
    1 + ((String.length key.k_bucket.b_packed + bytes_per_word) / bytes_per_word)
  in
  bytes_per_word
  * (string_words + List.fold_left (fun acc g -> acc + gate_words g) 0 gates)

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

(* A hit needs equal fingerprints and nothing else, so bucket equality
   is hit-compatibility: a bucket holds at most one entry, and a lookup
   probes only that one. *)
module Bucket = Hashtbl.Make (struct
  type t = bucket

  let equal a b = a.b_hash = b.b_hash && String.equal a.b_packed b.b_packed

  let hash b = b.b_hash
end)

(* Entries form a circular LRU list through [sentinel], most recent
   first. *)
type entry = {
  e_bucket : bucket;
  e_gates : Gate.t list;
  e_bytes : int;
  mutable prev : entry;
  mutable next : entry;
}

let rec sentinel =
  {
    e_bucket = { b_hash = 0; b_packed = "" };
    e_gates = [];
    e_bytes = 0;
    prev = sentinel;
    next = sentinel;
  }

let lock = Mutex.create ()
let table : entry Bucket.t = Bucket.create 256
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

let with_lock f = Mutex.protect lock f

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front e =
  e.prev <- sentinel;
  e.next <- sentinel.next;
  sentinel.next.prev <- e;
  sentinel.next <- e

let touch e =
  unlink e;
  push_front e

let evict_to_budget () =
  while !total_bytes > !budget_ref && sentinel.prev != sentinel do
    let e = sentinel.prev in
    unlink e;
    Bucket.remove table e.e_bucket;
    total_bytes := !total_bytes - e.e_bytes;
    decr total_entries;
    incr c_evictions
  done

(* Caller holds the lock.  [false] when the key is already resident. *)
let insert_entry key gates bytes =
  let bucket = key.k_bucket in
  if Bucket.mem table bucket then false
  else
    let e =
      {
        e_bucket = bucket;
        e_gates = gates;
        e_bytes = bytes;
        prev = sentinel;
        next = sentinel;
      }
    in
    Bucket.add table bucket e;
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
      sentinel.next <- sentinel;
      sentinel.prev <- sentinel;
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
  let format_version = "phoenix-cache-v2"
  let suffix = ".pxc"

  type entry_info = { fingerprint : string; width : int; gates : Gate.t list }

  (* The marshalled payload.  Separate from [entry_info] so the on-disk
     layout is pinned independently of the reporting record. *)
  type payload = { p_fingerprint : string; p_width : int; p_gates : Gate.t list }

  let rec ensure_dir d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then (
      ensure_dir (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

  (* One file per ordered fingerprint: the digest, then 16 hex digits of
     the fingerprint's own MD5, which tell apart the row orders of one
     digest. *)
  let file_basename key =
    let { digest; fingerprint; _ } = text key in
    digest ^ "-" ^ String.sub (Digest.to_hex (Digest.string fingerprint)) 0 16 ^ suffix

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
                                  width = p.p_width;
                                  gates = p.p_gates;
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

(* An entry read from disk is hit-compatible when its ordered
   fingerprint (which folds in the exact-mode flag) matches: synthesis
   is a function of the local rows, so the replay is bit-identical. *)
let compatible key (info : Persist.entry_info) =
  String.equal info.Persist.fingerprint (text key).fingerprint

type probe = Skip | Hit of Gate.t list | Try_disk

let lookup ?record ~tier key =
  match tier with
  | Off -> None
  | Mem | Disk -> (
      let probe =
        with_lock (fun () ->
            match effective_tier tier !health_ref with
            | Off -> Skip
            | (Mem | Disk) as tier -> (
                match Bucket.find_opt table key.k_bucket with
                | Some e ->
                    touch e;
                    incr c_hits;
                    Hit e.e_gates
                | None when tier = Disk -> Try_disk
                | None ->
                    incr c_misses;
                    Skip))
      in
      match probe with
      | Skip -> None
      | Hit gates -> Some (expand key gates)
      | Try_disk -> (
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
            | Ok info when not (compatible key info) ->
                (* Address collision: valid file, but not replayable
                   here.  Silent miss. *)
                with_lock (fun () ->
                    incr c_misses;
                    note_disk_ok_locked ());
                None
            | Ok info -> (
                let gates = info.Persist.gates in
                match expand key gates with
                | circuit ->
                    let bytes = entry_bytes key gates in
                    with_lock (fun () ->
                        ignore (insert_entry key gates bytes);
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
  match tier with
  | Off -> ()
  | Mem | Disk -> (
      match canonical_gates ~copy:false key circuit with
      | None -> ()
      | Some gates -> (
          let bytes = entry_bytes key gates in
          let persist =
            with_lock (fun () ->
                match effective_tier tier !health_ref with
                | Off -> false
                | (Mem | Disk) as tier -> insert_entry key gates bytes && tier = Disk)
          in
          if persist then
            match canonical_gates ~copy:true key circuit with
            | None -> ()
            | Some gates -> (
                let { fingerprint; width; _ } = text key in
                let payload =
                  Marshal.to_string
                    { Persist.p_fingerprint = fingerprint; p_width = width; p_gates = gates }
                    []
                in
                match Persist.write (Persist.path_of_key key) payload with
                | () -> with_lock note_disk_ok_locked
                | exception (Sys_error msg | Unix.Unix_error (_, msg, _)) ->
                    with_lock note_disk_error_locked;
                    warn record "could not persist cache entry: %s" msg)))

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
    with_lock (fun () -> if Bucket.mem table key.k_bucket then 1 else 0)

  let packed key = key.k_bucket.b_packed
  let fingerprint key = (text key).fingerprint
end
