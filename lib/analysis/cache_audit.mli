(** Integrity audit of the persistent synthesis cache.

    Walks every entry file in a cache directory
    ({!Phoenix_cache.Cache.dir} by default) and re-establishes the
    invariants the cache relies on:

    - the file parses: version line, checksum (verified before
      unmarshalling), payload — anything else is a corrupt entry;
    - the content address in the file name matches the digest re-derived
      from the stored ordered fingerprint
      ({!Phoenix_pauli.Bsf.digest_of_canonical_form}) — a mismatch means
      the entry would replay the wrong circuit;
    - the stored gates fit the stored width (every gate qubit is one of
      the entry's local qubits), so a replay cannot go out of range.

    Corrupt or mismatched entries are [Error] findings; a clean
    directory yields one [Info] certification finding.  The runtime
    cache itself never trusts these files blindly (checksums are
    verified on every load), so the audit is an offline
    cross-check — e.g. [phoenix cache audit] in CI. *)

val run : ?dir:string -> unit -> Finding.t list
