(* The domain pool's contract is strict determinism: same results, same
   order, same error as the serial List.map, whatever the scheduling.
   The compiler's parallel group synthesis leans on every clause of it. *)

module Parallel = Phoenix_util.Parallel
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Circuit = Phoenix_circuit.Circuit
module Pauli_string = Phoenix_pauli.Pauli_string
module Diag = Phoenix_verify.Diag

let test_matches_list_map () =
  let f x = (x * x) + 3 in
  List.iter
    (fun domains ->
      List.iter
        (fun len ->
          let xs = List.init len (fun i -> i - 7) in
          Alcotest.(check (list int))
            (Printf.sprintf "domains=%d len=%d" domains len)
            (List.map f xs)
            (Parallel.map ~domains f xs))
        [ 0; 1; 2; 3; 17; 64; 257 ])
    [ 1; 2; 4; 8 ]

let test_order_preserved () =
  (* Uneven per-item work so domains finish out of order; slots must
     still come back in input order. *)
  let f i =
    let acc = ref 0 in
    for k = 1 to (i mod 13) * 1000 do
      acc := !acc + k
    done;
    ignore !acc;
    Printf.sprintf "item-%d" i
  in
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list string))
    "order" (List.map f xs)
    (Parallel.map ~domains:8 f xs)

let test_exception_lowest_index () =
  (* Several items fail; the re-raised exception must be the lowest-index
     one regardless of which domain hit it first. *)
  let f x = if x >= 5 then failwith (Printf.sprintf "boom-%d" x) else x in
  Alcotest.check_raises "lowest failure wins" (Failure "boom-5") (fun () ->
      ignore (Parallel.map ~domains:4 f (List.init 30 Fun.id)))

let test_env_override () =
  let prev = Sys.getenv_opt "PHOENIX_DOMAINS" in
  let restore () =
    match prev with
    | Some v -> Unix.putenv "PHOENIX_DOMAINS" v
    | None -> Unix.putenv "PHOENIX_DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "PHOENIX_DOMAINS" "3";
      Alcotest.(check int) "env override" 3 (Parallel.num_domains ());
      Unix.putenv "PHOENIX_DOMAINS" "junk";
      Alcotest.(check bool) "junk falls back" true (Parallel.num_domains () >= 1);
      Unix.putenv "PHOENIX_DOMAINS" "100000";
      Alcotest.(check int) "capped" 128 (Parallel.num_domains ()))

(* A seeded claim-order permutation is the auditor's stand-in for an
   adversarial scheduler; the pool's contract must survive every one. *)
let test_seeded_permutation () =
  let f x = (x * 31) mod 101 in
  List.iter
    (fun seed ->
      List.iter
        (fun len ->
          let xs = List.init len (fun i -> i - 3) in
          Alcotest.(check (list int))
            (Printf.sprintf "seed=%d len=%d" seed len)
            (List.map f xs)
            (Parallel.map ~domains:4 ~seed f xs))
        [ 0; 1; 5; 64; 133 ])
    [ 0; 1; 42; 1337 ]

let test_seed_env_override () =
  let prev = Sys.getenv_opt "PHOENIX_PARALLEL_SEED" in
  let restore () =
    Unix.putenv "PHOENIX_PARALLEL_SEED" (Option.value ~default:"" prev)
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "PHOENIX_PARALLEL_SEED" "7";
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int))
        "env-seeded map = List.map" (List.map succ xs)
        (Parallel.map ~domains:4 succ xs);
      Unix.putenv "PHOENIX_PARALLEL_SEED" "junk";
      Alcotest.(check (list int))
        "junk seed ignored" (List.map succ xs)
        (Parallel.map ~domains:4 succ xs))

(* Parallel and serial compilation must produce the same report,
   bit for bit: circuit, counts, and diagnostics in group order. *)
let blocks =
  List.map
    (List.map (fun (s, a) -> Pauli_string.of_string s, a))
    [
      [ "XXIIII", 0.3; "YYIIII", 0.4; "ZZIIII", 0.5 ];
      [ "IIXYII", 0.2; "IIYXII", 0.7 ];
      [ "IIIIZZ", 0.1; "IIIIXX", 0.6 ];
      [ "XIIIIX", 0.8; "YIIIIY", 0.9 ];
      [ "IZZIII", 0.15; "IXXIII", 0.25 ];
    ]

let test_parallel_serial_identical () =
  let compile domains =
    let options = { Compiler.default_options with domains; verify = true } in
    Registry.compile_blocks ~options Registry.phoenix 6 blocks
  in
  let serial = compile 1 in
  List.iter
    (fun domains ->
      let par = compile domains in
      let tag fmt = Printf.sprintf fmt domains in
      Alcotest.(check bool)
        (tag "circuit identical (domains=%d)")
        true
        (Circuit.equal serial.Compiler.circuit par.Compiler.circuit);
      Alcotest.(check int)
        (tag "two_q (domains=%d)")
        serial.Compiler.two_q_count par.Compiler.two_q_count;
      Alcotest.(check int)
        (tag "one_q (domains=%d)")
        serial.Compiler.one_q_count par.Compiler.one_q_count;
      Alcotest.(check int)
        (tag "depth (domains=%d)")
        serial.Compiler.depth_2q par.Compiler.depth_2q;
      Alcotest.(check bool)
        (tag "diagnostics identical (domains=%d)")
        true
        (serial.Compiler.diagnostics = par.Compiler.diagnostics))
    [ 2; 4; 8 ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = List.map" `Quick test_matches_list_map;
          Alcotest.test_case "order under skew" `Quick test_order_preserved;
          Alcotest.test_case "lowest-index exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "PHOENIX_DOMAINS override" `Quick test_env_override;
          Alcotest.test_case "seeded claim orders" `Quick test_seeded_permutation;
          Alcotest.test_case "PHOENIX_PARALLEL_SEED override" `Quick
            test_seed_env_override;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "parallel ≡ serial compile" `Quick
            test_parallel_serial_identical;
        ] );
    ]
