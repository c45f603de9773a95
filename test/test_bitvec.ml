module Bitvec = Phoenix_util.Bitvec

let test_create_and_get () =
  let v = Bitvec.create 100 in
  Alcotest.(check int) "length" 100 (Bitvec.length v);
  Alcotest.(check bool) "zero" true (Bitvec.is_zero v);
  for i = 0 to 99 do
    Alcotest.(check bool) "bit clear" false (Bitvec.get v i)
  done

let test_set_get_roundtrip () =
  let v = Bitvec.create 130 in
  (* crosses word boundaries at 62 and 124 *)
  List.iter (fun i -> Bitvec.set v i true) [ 0; 61; 62; 63; 123; 124; 129 ];
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "bit %d" i) true (Bitvec.get v i))
    [ 0; 61; 62; 63; 123; 124; 129 ];
  Alcotest.(check int) "popcount" 7 (Bitvec.popcount v);
  Bitvec.set v 62 false;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 62);
  Alcotest.(check int) "popcount after clear" 6 (Bitvec.popcount v)

let test_flip () =
  let v = Bitvec.create 10 in
  Bitvec.flip v 3;
  Alcotest.(check bool) "flipped on" true (Bitvec.get v 3);
  Bitvec.flip v 3;
  Alcotest.(check bool) "flipped off" false (Bitvec.get v 3)

let test_out_of_range () =
  let v = Bitvec.create 5 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 5" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v 5));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitvec.create: negative length") (fun () ->
      ignore (Bitvec.create (-1)))

let test_string_roundtrip () =
  let s = "0110010111010001" in
  Alcotest.(check string) "roundtrip" s Bitvec.(to_string (of_string s))

let test_logical_ops () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  Alcotest.(check string) "xor" "0110" (Bitvec.to_string (Bitvec.logxor a b));
  Alcotest.(check string) "or" "1110" (Bitvec.to_string (Bitvec.logor a b));
  Alcotest.(check string) "and" "1000" (Bitvec.to_string (Bitvec.logand a b));
  Alcotest.(check int) "and_popcount" 1 (Bitvec.and_popcount a b);
  Alcotest.(check int) "or_popcount" 3 (Bitvec.or_popcount a b)

let test_length_mismatch () =
  let a = Bitvec.create 4 and b = Bitvec.create 5 in
  Alcotest.check_raises "xor mismatch" (Invalid_argument "Bitvec: length mismatch")
    (fun () -> ignore (Bitvec.logxor a b))

let test_indices () =
  let v = Bitvec.of_indices 70 [ 3; 62; 69 ] in
  Alcotest.(check (list int)) "indices" [ 3; 62; 69 ] (Bitvec.indices v);
  Alcotest.(check (option int)) "first_set" (Some 3) (Bitvec.first_set v);
  Alcotest.(check (option int)) "first_set empty" None
    (Bitvec.first_set (Bitvec.create 70))

let test_copy_independent () =
  let a = Bitvec.of_string "1010" in
  let b = Bitvec.copy a in
  Bitvec.flip b 0;
  Alcotest.(check bool) "original unchanged" true (Bitvec.get a 0);
  Alcotest.(check bool) "copy changed" false (Bitvec.get b 0)

let test_blit () =
  let a = Bitvec.of_string "1010110" and b = Bitvec.create 7 in
  Bitvec.blit ~src:a ~dst:b;
  Alcotest.(check string) "blit copies" "1010110" (Bitvec.to_string b);
  Bitvec.flip b 0;
  Alcotest.(check bool) "src unaliased" true (Bitvec.get a 0);
  Alcotest.check_raises "blit mismatch"
    (Invalid_argument "Bitvec.blit: length mismatch") (fun () ->
      Bitvec.blit ~src:a ~dst:(Bitvec.create 8))

let test_word_access () =
  let v = Bitvec.of_indices 130 [ 0; 61; 62; 129 ] in
  Alcotest.(check int) "num_words" 3 (Bitvec.num_words v);
  Alcotest.(check int) "word 0" ((1 lsl 61) lor 1) (Bitvec.word v 0);
  Alcotest.(check int) "word 1" 1 (Bitvec.word v 1);
  Alcotest.(check int) "bits_per_word" 62 Bitvec.bits_per_word

let test_word_kernels () =
  (* SWAR popcount and ctz against the naive per-bit loops, over words
     exercising every bit position of the 62-bit payload. *)
  let naive_popcount w =
    let c = ref 0 in
    for i = 0 to 61 do
      if (w lsr i) land 1 = 1 then incr c
    done;
    !c
  in
  let words =
    [ 0; 1; 2; 3; 0x2AAA_AAAA_AAAA_AAAA; (1 lsl 62) - 1 ]
    @ List.init 62 (fun i -> 1 lsl i)
    @ List.init 61 (fun i -> (1 lsl 62) - 1 - (1 lsl i))
  in
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "popcount_word %x" w)
        (naive_popcount w) (Bitvec.popcount_word w);
      if w <> 0 then
        let rec lowest i = if (w lsr i) land 1 = 1 then i else lowest (i + 1) in
        Alcotest.(check int)
          (Printf.sprintf "ctz_word %x" w)
          (lowest 0) (Bitvec.ctz_word w))
    words

let random_vec_gen n =
  QCheck2.Gen.map
    (fun bits ->
      let v = Bitvec.create n in
      List.iteri (fun i b -> Bitvec.set v i b) bits;
      v)
    (QCheck2.Gen.list_size (QCheck2.Gen.return n) QCheck2.Gen.bool)

let prop_get_unsafe_matches_get =
  Helpers.qtest "get_unsafe = get" (random_vec_gen 150) (fun v ->
      let ok = ref true in
      for i = 0 to 149 do
        if Bitvec.get_unsafe v i <> Bitvec.get v i then ok := false
      done;
      !ok)

let prop_get2_unsafe_matches_get =
  Helpers.qtest "get2_unsafe packs get pairs"
    (QCheck2.Gen.triple (random_vec_gen 150)
       (QCheck2.Gen.int_range 0 149)
       (QCheck2.Gen.int_range 0 149))
    (fun (v, a, b) ->
      let expect =
        (if Bitvec.get v a then 1 else 0) lor (if Bitvec.get v b then 2 else 0)
      in
      Bitvec.get2_unsafe v a b = expect)

let prop_iter_set_matches_reference =
  (* The ctz-driven iter_set must visit exactly the set bits, ascending,
     like the naive per-bit scan it replaced. *)
  Helpers.qtest "iter_set = per-bit scan" (random_vec_gen 190) (fun v ->
      let fast = ref [] in
      Bitvec.iter_set (fun i -> fast := i :: !fast) v;
      let slow = ref [] in
      for i = 189 downto 0 do
        if Bitvec.get v i then slow := i :: !slow
      done;
      List.rev !fast = !slow)

let prop_xor_popcount =
  Helpers.qtest "xor of self is zero"
    (QCheck2.Gen.list_size (QCheck2.Gen.return 80) QCheck2.Gen.bool)
    (fun bits ->
      let v = Bitvec.create 80 in
      List.iteri (fun i b -> Bitvec.set v i b) bits;
      Bitvec.is_zero (Bitvec.logxor v v))

let prop_popcount_matches_indices =
  Helpers.qtest "popcount = |indices|"
    (QCheck2.Gen.list_size (QCheck2.Gen.return 100) QCheck2.Gen.bool)
    (fun bits ->
      let v = Bitvec.create 100 in
      List.iteri (fun i b -> Bitvec.set v i b) bits;
      Bitvec.popcount v = List.length (Bitvec.indices v))

let prop_fold_ascending =
  Helpers.qtest "fold_set visits ascending"
    (QCheck2.Gen.list_size (QCheck2.Gen.return 90) QCheck2.Gen.bool)
    (fun bits ->
      let v = Bitvec.create 90 in
      List.iteri (fun i b -> Bitvec.set v i b) bits;
      let idx = Bitvec.indices v in
      List.sort compare idx = idx)

(* Group tables key wide supports by [hash]: the bucket index (its low
   bits) must depend on words far past the first few.  300 adjacent
   qubit pairs beyond qubit 600 of a 1000-qubit register, into 256
   buckets, fill about 177 of them at random; a hash that reads only
   the leading words puts them all in one. *)
let test_hash_mixes_every_word () =
  let buckets = Hashtbl.create 256 in
  for q = 600 to 899 do
    Hashtbl.replace buckets (Bitvec.hash (Bitvec.of_indices 1000 [ q; q + 1 ]) land 255) ()
  done;
  let used = Hashtbl.length buckets in
  if used < 128 then
    Alcotest.failf "300 wide supports used %d of 256 buckets; want at least 128" used

let () =
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "create/get" `Quick test_create_and_get;
          Alcotest.test_case "set/get across words" `Quick test_set_get_roundtrip;
          Alcotest.test_case "flip" `Quick test_flip;
          Alcotest.test_case "bounds" `Quick test_out_of_range;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "logical ops" `Quick test_logical_ops;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "indices" `Quick test_indices;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "word access" `Quick test_word_access;
          Alcotest.test_case "popcount/ctz kernels" `Quick test_word_kernels;
          Alcotest.test_case "hash mixes every word" `Quick
            test_hash_mixes_every_word;
        ] );
      ( "props",
        [
          prop_xor_popcount;
          prop_popcount_matches_indices;
          prop_fold_ascending;
          prop_get_unsafe_matches_get;
          prop_get2_unsafe_matches_get;
          prop_iter_set_matches_reference;
        ] );
    ]
