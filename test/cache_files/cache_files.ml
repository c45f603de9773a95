(* Prints the disk-cache files that compiling each program writes into
   a fresh cache directory, one line per file: its name and the MD5 of
   its bytes.  Synthesis runs on one domain, so the contents do not
   depend on scheduling.  The last program is a template compile, whose
   entries carry slot angles. *)

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

let options =
  { Compiler.default_options with cache = Cache.Disk; domains = 1 }

let file_md5 path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Digest.to_hex (Digest.channel ic (-1)))

let () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phoenix-cache-files-%d" (Unix.getpid ()))
  in
  List.iteri
    (fun i (spec, mode) ->
      let dir = Filename.concat root (string_of_int i) in
      Unix.putenv "PHOENIX_CACHE_DIR" dir;
      Cache.clear_memory ();
      Cache.reset_health ();
      let h =
        match Phoenix_serve.Workload.of_spec spec with
        | Ok h -> h
        | Error msg -> failwith (spec ^ ": " ^ msg)
      in
      (match mode with
      | `Plain -> ignore (Registry.compile ~options Registry.phoenix h)
      | `Template -> (
          match Registry.compile_template ~options Registry.phoenix h with
          | Ok _ -> ()
          | Error msg -> failwith (spec ^ " template: " ^ msg)));
      let files = Cache.Persist.list_files ~dir () in
      Printf.printf "%s%s: %d files, %d bytes\n" spec
        (match mode with `Plain -> "" | `Template -> " (template)")
        (List.length files)
        (Cache.Persist.disk_bytes ~dir ());
      List.iter
        (fun f -> Printf.printf "  %s %s\n" (Filename.basename f) (file_md5 f))
        files;
      ignore (Cache.Persist.clear ~dir ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    programs;
  try Unix.rmdir root with Unix.Unix_error _ -> ()
