(** Content-addressed synthesis cache.

    Group-wise BSF simplification is the compiler's hot path, and the same
    simplified tableaux recur constantly — across Trotter steps, across
    symmetric excitation blocks, and across experiment-harness runs over
    the same presets.  This cache memoizes the synthesized circuit of a
    group keyed by its {e ordered fingerprint}: the mode flag and the
    group's rows in program order (Pauli letters, signs and angles) on
    the group's local qubits, so the address does not depend on where
    the support sits in the register.

    {b Keys.}  A key holds the fingerprint in two encodings.  The
    {e packed} form is one binary string read straight from the local
    terms' words: the mode flag, the support size and the row count,
    then per row its x and z words and its angle's 64 bits (a slot's
    first-use rank NaN-boxed with its sign).  It is equal exactly when
    the textual form is, and the memory tier hashes and compares it.
    The {e textual} form is {!Phoenix_pauli.Bsf.canonical_form} behind a
    mode prefix, with its row-sorted MD5 digest
    ({!Phoenix_pauli.Bsf.digest_of_canonical_form}); it is built once
    per key, and only when the disk tier needs a file name, a payload or
    a compatibility check.

    {b Local coordinates and bit-identity.}  The simplify pass relabels
    each group once onto its ascending support and keys, looks up,
    synthesizes and stores on those k qubits, then embeds the circuit.
    The digest is reorder- and relabel-invariant, but synthesis is
    order-sensitive, so a hit requires the {e ordered} fingerprint
    (program-order rows + exact-mode flag) to match exactly.  Synthesis
    on the support is a function of the local rows alone, so an entry
    replays onto any support bit-identically to a cold synthesis.

    {b Tiers.}  [Mem] is an in-process LRU with a byte budget
    ([PHOENIX_CACHE_BUDGET], default 64 MiB), bucketed by packed
    fingerprint.  Bucket equality is hit-compatibility, so a bucket
    holds at most one entry and a lookup probes only that one.  An
    entry holds the synthesized gates as they are (they are immutable
    and already on the local qubits); only slot angles are rewritten,
    and only for keys with slots.  Its [bytes] are the heap words it
    holds — packed fingerprint and gates, counted as trees — the same
    count whichever tier the entry came from.  [Disk] adds a persistent
    tier under {!dir} ([PHOENIX_CACHE_DIR]) with versioned, checksummed
    entries of the textual fingerprint, the rows' width and a copy of
    the gates, marshalled; corrupt or mismatched entries are skipped
    with a [Warning] diagnostic and recompilation proceeds — never a
    crash.  An entry's bytes are a function of its key, so racing
    writers and compiles on any number of domains write the same
    files.

    {b Concurrency.}  All mutable state sits behind one mutex.  A memory
    lookup reads the health ladder, probes the table and counts its hit
    or miss in one critical section, and a store does the same for its
    insertion, so both are safe from the [Parallel] domain pool.  Keys
    are per-group values, never shared between domains, so a key builds
    its textual form without the lock.  Persisted writes go through a
    temp file and an atomic rename (single-writer commit). *)

type tier = Off | Mem | Disk

val tier_of_string : string -> tier option
val tier_to_string : tier -> string

type health = Full | Mem_only | No_cache
(** The cache's own degradation ladder (disk → mem → off), global to the
    process.  After {!Testing.disk_error_threshold} {e consecutive} disk
    faults the persistent tier is parked and [Disk] requests behave as
    [Mem] ([Mem_only]); [No_cache] turns every request into [Off].  One
    successful disk operation resets the fault streak. *)

val health_to_string : health -> string

val health : unit -> health
(** Current rung.  Pipelines compare before/after a pass to surface any
    step the cache took as a degradation event. *)

val reset_health : unit -> unit
(** Re-arm the ladder at [Full] (e.g. at the start of a new job, whose
    cache directory may be healthy again). *)

type key
(** Content address of one group's tableau: the packed fingerprint
    (which folds in the exact-mode flag) and — built on first use by the
    disk tier — the textual fingerprint and canonical digest.  Symbolic {!Phoenix_pauli.Angle} slot angles
    address by their first-use rank within the group (not their IEEE
    bits), so parametric compiles of the same structure hit across
    parameter values and across processes; stored entries carry
    rank-relative slots that are rewritten to the requester's slots on
    replay. *)

val key_of_terms :
  exact:bool -> int -> (Phoenix_pauli.Pauli_string.t * float) list -> key
(** [key_of_terms ~exact k terms] addresses a group given on its
    support: [terms] act on its [k] local qubits, every one of which
    some term touches.  Packs the rows' words and angle bits into one
    string; builds no tableau, text or digest.  An identity-only group
    keys as zero-qubit rows whatever [k] is, since its circuit is empty
    on any register.  Raises [Invalid_argument] when some, but not all,
    local qubits are idle: a key names no layout for them, so it must
    never store or replay one. *)

val digest : key -> string
(** Hex content digest, the disk file prefix (built on first use). *)

val lookup :
  ?record:(Phoenix_verify.Diag.t -> unit) ->
  tier:tier ->
  key ->
  Phoenix_circuit.Circuit.t option
(** Consult the cache before synthesis.  A hit returns the stored circuit
    on the key's k local qubits, its slot angles rewritten to the
    requester's.  Disk faults (truncated, bit-flipped, or
    version-mismatched entries, and entries whose gates do not fit the k
    qubits) are reported through [record] as [Warning] diagnostics and
    counted in {!stats}, and the lookup degrades to a miss. *)

val store :
  ?record:(Phoenix_verify.Diag.t -> unit) ->
  tier:tier ->
  key ->
  Phoenix_circuit.Circuit.t ->
  unit
(** Commit a freshly synthesized circuit on the key's k local qubits.
    Idempotent: a key already resident is left untouched.  With
    [tier = Disk] the entry is also persisted: staged in a temp file
    and published with an atomic rename, falling back to
    copy+fsync+rename-within-directory when the staging file lands on
    a different filesystem (EXDEV).  Write failures are reported
    through [record] and otherwise ignored. *)

(** {1 Counters} *)

type stats = {
  hits : int;  (** lookups answered from memory or disk *)
  misses : int;
  disk_hits : int;  (** subset of [hits] that were faulted in from disk *)
  disk_errors : int;  (** corrupt/mismatched/unwritable persistent entries *)
  evictions : int;  (** LRU evictions forced by the byte budget *)
  insertions : int;
  entries : int;  (** resident in-memory entries (gauge, not a counter) *)
  bytes : int;
      (** heap bytes the resident entries hold: packed fingerprint and
          gates (gauge) *)
}

val stats : unit -> stats

val diff : stats -> stats -> stats
(** [diff later earlier] subtracts the counters and keeps the gauges
    ([entries], [bytes]) of [later] — the per-run delta used by reports. *)

val stats_json : stats -> Phoenix_util.Json.t
(** The counters as one JSON object, keys matching the record fields in
    order — the ["cache"] object of a pass trace, a serve report and
    the serve stats frame. *)

val reset_stats : unit -> unit

(** {1 Memory tier control} *)

val budget : unit -> int
val set_budget : int -> unit
(** Byte budget of the memory tier; shrinking evicts immediately. *)

val clear_memory : unit -> unit

(** {1 Persistent tier} *)

val dir : unit -> string
(** [PHOENIX_CACHE_DIR] if set, else [$XDG_CACHE_HOME/phoenix], else
    [$HOME/.cache/phoenix].  Re-read on every use so tests can repoint it. *)

module Persist : sig
  val format_version : string
  (** First line of every cache file; bumped on layout changes, since
      [Marshal] is not type-safe.  A file is named by its digest and 16
      hex digits of its ordered fingerprint's MD5; older versions' files
      have other names, so lookups never open them. *)

  type entry_info = {
    fingerprint : string;
    width : int;  (** local qubits of the rows (0 for identity-only rows) *)
    gates : Phoenix_circuit.Gate.t list;  (** on the local qubits *)
  }

  val list_files : ?dir:string -> unit -> string list
  (** Absolute paths of every cache entry file, sorted. *)

  val read_file : string -> (entry_info, string) result
  (** Parse and validate one entry file: version line, checksum line
      (verified {e before} unmarshalling), payload.  [Error] carries a
      human-readable fault description. *)

  val digest_of_file : string -> string option
  (** The content digest encoded in an entry file's basename. *)

  val disk_bytes : ?dir:string -> unit -> int
  val clear : ?dir:string -> unit -> int
  (** Remove every entry file; returns how many were removed. *)
end

(** {1 Testing hooks}

    For the resilience tests and the chaos harness only. *)
module Testing : sig
  val force_health : health -> unit
  (** Pin the ladder at a rung (resets the fault streak). *)

  val trip_disk_errors : int -> unit
  (** Register [k] consecutive disk faults, as a burst of real I/O
      errors would. *)

  val set_force_exdev : bool -> unit
  (** Make every persist commit take the cross-filesystem
      copy+fsync+rename fallback, as if the staging rename failed with
      [EXDEV]. *)

  val disk_error_threshold : int
  (** Consecutive disk faults that park the persistent tier. *)

  val bucket_length : key -> int
  (** Entries in the memory bucket a lookup of this key probes (at most
      one). *)

  val packed : key -> string
  (** The packed fingerprint the memory tier hashes and compares. *)

  val fingerprint : key -> string
  (** The textual ordered fingerprint the disk tier stores and checks. *)
end
