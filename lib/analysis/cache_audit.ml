module Cache = Phoenix_cache.Cache
module Bsf = Phoenix_pauli.Bsf
module Gate = Phoenix_circuit.Gate

let analysis = "cache-integrity"

(* The fingerprint is "<mode>;<canonical form>"; the digest is derived
   from the form alone, so strip the mode prefix before re-hashing. *)
let digest_of_fingerprint fp =
  match String.index_opt fp ';' with
  | None -> None
  | Some i ->
    Some (Bsf.digest_of_canonical_form
            (String.sub fp (i + 1) (String.length fp - i - 1)))

let max_gate_qubit gates =
  List.fold_left
    (fun acc g -> List.fold_left max acc (Gate.qubits g))
    (-1) gates

let audit_file path =
  let file = Filename.basename path in
  match Cache.Persist.read_file path with
  | Error msg ->
    [ Finding.error ~analysis "corrupt cache entry %s: %s" file msg ]
  | Ok info ->
    let address =
      match
        (Cache.Persist.digest_of_file path,
         digest_of_fingerprint info.Cache.Persist.fingerprint)
      with
      | Some named, Some derived when named <> derived ->
        [
          Finding.error ~analysis
            "cache entry %s: file digest %s does not match fingerprint \
             digest %s"
            file named derived;
        ]
      | None, _ ->
        [ Finding.error ~analysis "cache entry %s: unparseable file name" file ]
      | _, None ->
        [
          Finding.error ~analysis
            "cache entry %s: unparseable stored fingerprint" file;
        ]
      | Some _, Some _ -> []
    in
    let k = info.Cache.Persist.width in
    let range =
      let mq = max_gate_qubit info.Cache.Persist.gates in
      if mq >= k then
        [
          Finding.error ~analysis
            "cache entry %s: gate qubit %d outside the stored width \
             (%d qubits)"
            file mq k;
        ]
      else []
    in
    address @ range

let run ?dir () =
  let files = Cache.Persist.list_files ?dir () in
  match List.concat_map audit_file files with
  | [] ->
    [
      Finding.info ~analysis
        "audited %d persistent cache entries (%d bytes): checksums, \
         content addresses and gate ranges consistent"
        (List.length files)
        (Cache.Persist.disk_bytes ?dir ());
    ]
  | problems -> problems
