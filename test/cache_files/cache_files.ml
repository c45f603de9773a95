(* Prints the disk-cache files that compiling each program writes into
   a fresh cache directory, one line per file: its name and the MD5 of
   its bytes.  Synthesis runs on one domain.  The last program is a
   template compile, whose entries carry slot angles.

   Then compiles three programs again on four domains under several
   claim-order seeds (PHOENIX_PARALLEL_SEED), each into a fresh
   directory, and prints whether every run wrote the one-domain run's
   file names and bytes: an entry's bytes are a function of its key, so
   they must not depend on which group stored it first. *)

module Cache = Phoenix_cache.Cache
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry

let programs =
  [
    ("heisenberg:100", `Plain);
    ("qaoa:Reg3-250", `Plain);
    ("tfim:200", `Plain);
    ("uccsd:LiH_frz_JW", `Plain);
    ("uccsd:LiH_frz_JW", `Template);
  ]

let parallel_programs = [ "fermi-hubbard:5x5"; "heisenberg:100"; "tfim:200" ]
let seeds = [ 1; 7; 42 ]

let file_md5 path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Digest.to_hex (Digest.channel ic (-1)))

let root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "phoenix-cache-files-%d" (Unix.getpid ()))

(* Compile [spec] into the fresh directory [root/name] and return its
   files' basenames and MD5s, sorted, and their total bytes; the
   directory is removed again. *)
let fill ~name ~domains (spec, mode) =
  let dir = Filename.concat root name in
  Unix.putenv "PHOENIX_CACHE_DIR" dir;
  Cache.clear_memory ();
  Cache.reset_health ();
  let h =
    match Phoenix_serve.Workload.of_spec spec with
    | Ok h -> h
    | Error msg -> failwith (spec ^ ": " ^ msg)
  in
  let options = { Compiler.default_options with cache = Cache.Disk; domains } in
  (match mode with
  | `Plain -> ignore (Registry.compile ~options Registry.phoenix h)
  | `Template -> (
      match Registry.compile_template ~options Registry.phoenix h with
      | Ok _ -> ()
      | Error msg -> failwith (spec ^ " template: " ^ msg)));
  let files = Cache.Persist.list_files ~dir () in
  let listing = List.map (fun f -> (Filename.basename f, file_md5 f)) files in
  let bytes = Cache.Persist.disk_bytes ~dir () in
  ignore (Cache.Persist.clear ~dir ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (listing, bytes)

let () =
  List.iteri
    (fun i ((spec, mode) as program) ->
      let listing, bytes = fill ~name:(string_of_int i) ~domains:1 program in
      Printf.printf "%s%s: %d files, %d bytes\n" spec
        (match mode with `Plain -> "" | `Template -> " (template)")
        (List.length listing) bytes;
      List.iter (fun (f, md5) -> Printf.printf "  %s %s\n" f md5) listing)
    programs;
  List.iter
    (fun spec ->
      let one, _ = fill ~name:"one" ~domains:1 (spec, `Plain) in
      let runs =
        List.map
          (fun seed ->
            Unix.putenv "PHOENIX_PARALLEL_SEED" (string_of_int seed);
            let four, _ = fill ~name:(Printf.sprintf "seed-%d" seed) ~domains:4 (spec, `Plain) in
            Unix.putenv "PHOENIX_PARALLEL_SEED" "";
            let names = List.sort_uniq compare (List.map fst (one @ four)) in
            let differ =
              List.length
                (List.filter (fun f -> List.assoc_opt f one <> List.assoc_opt f four) names)
            in
            if differ = 0 then Printf.sprintf "seed %d same" seed
            else Printf.sprintf "seed %d: %d of %d differ" seed differ (List.length names))
          seeds
      in
      Printf.printf "%s on 4 domains, %d files: %s\n" spec (List.length one)
        (String.concat ", " runs))
    parallel_programs;
  try Unix.rmdir root with Unix.Unix_error _ -> ()
