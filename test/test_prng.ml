module Prng = Phoenix_util.Prng

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different streams" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let test_int_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_float_bounds () =
  let g = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_uniform_hits_both_halves () =
  let g = Prng.create 11 in
  let lo = ref 0 and hi = ref 0 in
  for _ = 1 to 1000 do
    if Prng.uniform g (-1.0) 1.0 < 0.0 then incr lo else incr hi
  done;
  Alcotest.(check bool) "roughly balanced" true (!lo > 300 && !hi > 300)

let test_shuffle_permutes () =
  let g = Prng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_split_independent () =
  let g = Prng.create 3 in
  let h = Prng.split g in
  Alcotest.(check bool) "independent streams" true
    (Prng.next_int64 g <> Prng.next_int64 h)

let test_pick () =
  let g = Prng.create 13 in
  for _ = 1 to 100 do
    let v = Prng.pick g [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick g ([] : int list)))

(* --- against the record-state reference --------------------------- *)

module Reference = Prng_reference

let reference_seeds = [ 0; 1; 7; 2025; -5; max_int; min_int ]

(* Interleave every entry point on both generators, draw by draw; a
   split child is drawn from a few times, then dropped. *)
let test_streams_equal_reference () =
  List.iter
    (fun seed ->
      let a = Prng.create seed and r = Reference.create seed in
      let fail i what =
        Alcotest.failf "seed %d, draw %d: %s differs from the reference" seed i
          what
      in
      for i = 0 to 199_999 do
        match i mod 6 with
        | 0 ->
          if Prng.next_int64 a <> Reference.next_int64 r then fail i "next_int64"
        | 1 ->
          let bound = 1 + (i mod 1000) in
          if Prng.int a bound <> Reference.int r bound then fail i "int"
        | 2 ->
          if
            Int64.bits_of_float (Prng.float a 2.5)
            <> Int64.bits_of_float (Reference.float r 2.5)
          then fail i "float"
        | 3 -> if Prng.bool a <> Reference.bool r then fail i "bool"
        | 4 ->
          if
            Int64.bits_of_float (Prng.uniform a (-1.0) 3.0)
            <> Int64.bits_of_float (Reference.uniform r (-1.0) 3.0)
          then fail i "uniform"
        | _ ->
          let a' = Prng.split a and r' = Reference.split r in
          for _ = 1 to 3 do
            if Prng.next_int64 a' <> Reference.next_int64 r' then fail i "split"
          done
      done)
    reference_seeds

let test_float_draw_allocation () =
  let g = Prng.create 3 in
  let draws = 100_000 in
  let sink = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sink := Sys.opaque_identity (Prng.float g 1.0)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int draws in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 words per draw (%.2f)" words)
    true (words <= 2.0)

(* [fill_float] is [float t bound] draw by draw: batches of 0–17 draws
   against single reference draws, interleaved with the other entry
   points on both generators. *)
let test_fill_float_equals_reference () =
  let buf = Array.make 17 0.0 in
  List.iter
    (fun seed ->
      let a = Prng.create seed and r = Reference.create seed in
      let fail i what =
        Alcotest.failf "seed %d, round %d: %s differs from the reference" seed
          i what
      in
      for i = 0 to 19_999 do
        let n = i mod 18 in
        Prng.fill_float a 1.0 buf n;
        for j = 0 to n - 1 do
          if
            Int64.bits_of_float buf.(j)
            <> Int64.bits_of_float (Reference.float r 1.0)
          then fail i "fill_float"
        done;
        match i mod 4 with
        | 0 -> if Prng.int a 97 <> Reference.int r 97 then fail i "int"
        | 1 ->
          if
            Int64.bits_of_float (Prng.float a 1.0)
            <> Int64.bits_of_float (Reference.float r 1.0)
          then fail i "float"
        | 2 ->
          if Prng.next_int64 a <> Reference.next_int64 r then fail i "next_int64"
        | _ -> if Prng.bool a <> Reference.bool r then fail i "bool"
      done)
    reference_seeds

let test_fill_float_allocation () =
  let g = Prng.create 3 and buf = Array.make 64 0.0 in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Prng.fill_float g 1.0 buf 64
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity buf);
  (* a word per call or more would read 10,000 *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation per call (%.0f words over %d calls)" words
       calls)
    true (words < 100.0)

let () =
  Alcotest.run "prng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "uniform balance" `Quick test_uniform_hits_both_halves;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "pick" `Quick test_pick;
        ] );
      ( "reference",
        [
          Alcotest.test_case "streams equal the reference" `Quick
            test_streams_equal_reference;
          Alcotest.test_case "float draw allocation" `Quick
            test_float_draw_allocation;
          Alcotest.test_case "batched draws equal the reference" `Quick
            test_fill_float_equals_reference;
          Alcotest.test_case "batched draws allocate nothing" `Quick
            test_fill_float_allocation;
        ] );
    ]
