(** Minimal domain pool for data-parallel maps (stdlib [Domain] only).

    The contract is strict determinism: provided [f] is pure,
    [map f xs = List.map f xs] — same results, same order, and the
    lowest-index exception re-raised on failure — regardless of how many
    domains execute the work or how items are scheduled across them.

    Failure handling is likewise part of the contract: every spawned
    domain is joined before [map] returns or re-raises, so a raising or
    cancelled worker never leaves a runaway domain behind and the pool
    is immediately reusable for the next call. *)

exception Transient of string
(** A worker failure worth retrying in place (I/O hiccup, injected chaos
    fault).  Absorbed up to the retry budget; re-raised once exhausted. *)

val default_retries : int
(** Bounded retry budget for {!Transient} failures (per item). *)

val num_domains : unit -> int
(** Domains used by default: [Domain.recommended_domain_count ()], or the
    [PHOENIX_DOMAINS] environment variable when it parses as a positive
    integer (capped at 128). *)

val measure_words : (unit -> 'a) -> 'a * float
(** [measure_words f] runs [f ()] and returns its result and the words
    allocated meanwhile on the calling domain and, for every {!map} it
    called, on that map's helper domains: the [Gc.minor_words] delta
    plus the major − promoted delta of [Gc.counters], which counts
    direct major-heap allocations at once.  Each helper domain measures
    its own work this way and returns the count through [Domain.join];
    [map] adds it to a domain-local account of its caller.  The count
    does not depend on the minor heap size or on when collections
    run. *)

val map :
  ?domains:int -> ?seed:int -> ?retries:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] evaluates [f] on every element of [xs], fanning the work
    out over [domains] (default {!num_domains}) domains.  Runs on the
    calling domain alone when [domains ≤ 1] or there is at most one
    item.  [f] must be safe to call concurrently from several domains.

    [seed] (or, when absent, the [PHOENIX_PARALLEL_SEED] environment
    variable when it parses as an integer) permutes the order in which
    items are claimed by the worker domains — a deterministic stand-in
    for adversarial work-stealing schedules.  Results are unaffected:
    each lands in its original slot, so [map f xs = List.map f xs] holds
    for every seed.  The determinism auditor replays compilations under
    several seeds to prove that property for the compiler's own uses.

    An item raising {!Transient} is retried in place up to [retries]
    times (default {!default_retries}) before the failure counts.  Any
    other exception is recorded in the item's slot; remaining items
    still drain (so the lowest-index failure is deterministic), all
    domains are joined, and the lowest-index exception is re-raised with
    its backtrace.  Exception: {!Budget.Interrupted} stops the remaining
    domains from claiming new work first — prompt cancellation beats a
    deterministic drain.  If the system refuses to spawn a helper
    domain, the map proceeds on fewer domains rather than failing. *)
