(* Process-level measurements: the clock, resident memory and GC
   counters. *)

(* Nanosecond CLOCK_MONOTONIC: binds take microseconds, below the
   resolution of [Unix.gettimeofday]. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Set-up is timed this many times in a run — once before the measured
   loop and the rest spread through it, between ops — and setup_s is the
   median, so it is not set by whichever stretch of the run the machine
   happened to be slow in. *)
let setup_repeats = 9

(* A function to call between ops: it runs [f] each time another
   [1 / setup_repeats] of [seconds] has passed, [setup_repeats - 1] times
   at most. *)
let spaced ~seconds f =
  let start = now () and k = ref 1 in
  fun () ->
    if !k < setup_repeats && now () -. start >= seconds *. float_of_int !k /. float_of_int setup_repeats
    then begin
      incr k;
      f ()
    end

(* A [kB] line of /proc/<pid>/status (VmHWM, VmRSS), in MiB; [None]
   where procfs is unavailable. *)
let status_mb ?(pid = "self") field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix line -> (
        let rest = String.sub line (String.length prefix)
            (String.length line - String.length prefix) in
        match String.split_on_char ' ' (String.trim rest) with
        | kb :: _ -> Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb)
        | [] -> None)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* Peak resident set of this process; the major-heap high-water mark
   stands in where procfs is missing. *)
let peak_rss_mb () =
  match status_mb "VmHWM" with
  | Some mb -> mb
  | None -> heap_mb (Gc.quick_stat ()).Gc.top_heap_words

type gc = { minor : int; major : int }

let gc_snapshot () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }

(* Collections per op between two snapshots, plus the heap peak. *)
let gc_metrics ~ops before after =
  let per n = float_of_int n /. float_of_int (max 1 ops) in
  [
    ("gc.minor_per_op", per (after.minor - before.minor));
    ("gc.major_per_op", per (after.major - before.major));
    ("gc.top_heap_mb", heap_mb (Gc.quick_stat ()).Gc.top_heap_words);
  ]
