module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Cmat = Helpers.Cmat
module Unitary = Helpers.Unitary

let all = [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]

let test_char_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Pauli.equal p (Pauli.of_char (Pauli.to_char p))))
    all;
  Alcotest.(check bool) "lowercase" true (Pauli.equal Pauli.X (Pauli.of_char 'x'));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Pauli.of_char: expected one of I, X, Y, Z") (fun () ->
      ignore (Pauli.of_char 'Q'))

let test_bits_roundtrip () =
  List.iter
    (fun p ->
      let x, z = Pauli.to_bits p in
      Alcotest.(check bool) "bits roundtrip" true
        (Pauli.equal p (Pauli.of_bits ~x ~z)))
    all

let test_commutation_table () =
  (* X,Y,Z pairwise anticommute; I commutes with everything. *)
  let expect a b =
    Pauli.is_identity a || Pauli.is_identity b || Pauli.equal a b
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "[%c,%c]" (Pauli.to_char a) (Pauli.to_char b))
            (expect a b) (Pauli.commutes a b))
        all)
    all

(* Verify the single-qubit multiplication table against dense matrices. *)
let test_mul_vs_matrices () =
  let i_pow k =
    match k mod 4 with
    | 0 -> { Complex.re = 1.0; im = 0.0 }
    | 1 -> { Complex.re = 0.0; im = 1.0 }
    | 2 -> { Complex.re = -1.0; im = 0.0 }
    | _ -> { Complex.re = 0.0; im = -1.0 }
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let k, r = Pauli.mul a b in
          let lhs = Cmat.mul (Unitary.pauli_1q a) (Unitary.pauli_1q b) in
          let rhs = Cmat.scale (i_pow k) (Unitary.pauli_1q r) in
          Alcotest.(check bool)
            (Printf.sprintf "%c*%c" (Pauli.to_char a) (Pauli.to_char b))
            true (Cmat.is_close lhs rhs))
        all)
    all

let test_string_parse () =
  let p = Pauli_string.of_string "IXYZ" in
  Alcotest.(check int) "qubits" 4 (Pauli_string.num_qubits p);
  Alcotest.(check string) "roundtrip" "IXYZ" (Pauli_string.to_string p);
  Alcotest.(check int) "weight" 3 (Pauli_string.weight p);
  Alcotest.(check (list int)) "support" [ 1; 2; 3 ] (Pauli_string.support_list p)

let test_string_set_get () =
  let p = Pauli_string.identity 5 in
  let p' = Pauli_string.set p 2 Pauli.Y in
  Alcotest.(check bool) "original untouched" true (Pauli_string.is_identity p);
  Alcotest.(check string) "set" "IIYII" (Pauli_string.to_string p');
  Alcotest.(check string) "single" "IZII"
    (Pauli_string.to_string (Pauli_string.single 4 1 Pauli.Z))

let test_known_commutation () =
  let c a b =
    Pauli_string.commutes (Pauli_string.of_string a) (Pauli_string.of_string b)
  in
  (* ZYY vs XZY: differs anticommutingly at exactly two positions. *)
  Alcotest.(check bool) "ZYY ~ XZY" true (c "ZYY" "XZY");
  Alcotest.(check bool) "XX ~ ZZ" true (c "XX" "ZZ");
  Alcotest.(check bool) "XI !~ ZI" false (c "XI" "ZI");
  Alcotest.(check bool) "XYZ ~ XYZ" true (c "XYZ" "XYZ")

let prop_commutes_matches_matrices =
  Helpers.qtest ~count:200 "string commutation = matrix commutation"
    (QCheck2.Gen.pair (Helpers.pauli_string_gen 3) (Helpers.pauli_string_gen 3))
    (fun (p, q) ->
      let mp = Unitary.pauli_matrix p and mq = Unitary.pauli_matrix q in
      let pq = Cmat.mul mp mq and qp = Cmat.mul mq mp in
      Pauli_string.commutes p q = Cmat.is_close pq qp)

let prop_mul_matches_matrices =
  Helpers.qtest ~count:200 "string product = matrix product"
    (QCheck2.Gen.pair (Helpers.pauli_string_gen 3) (Helpers.pauli_string_gen 3))
    (fun (p, q) ->
      let k, r = Pauli_string.mul p q in
      let i_pow =
        match k mod 4 with
        | 0 -> { Complex.re = 1.0; im = 0.0 }
        | 1 -> { Complex.re = 0.0; im = 1.0 }
        | 2 -> { Complex.re = -1.0; im = 0.0 }
        | _ -> { Complex.re = 0.0; im = -1.0 }
      in
      Cmat.is_close
        (Cmat.mul (Unitary.pauli_matrix p) (Unitary.pauli_matrix q))
        (Cmat.scale i_pow (Unitary.pauli_matrix r)))

(* The word-parallel phase computation in Pauli_string.mul must agree
   with the per-qubit single-Pauli multiplication table, including far
   past the first backing word (150 qubits spans three words). *)
let prop_mul_matches_per_qubit =
  Helpers.qtest ~count:300 "word-parallel mul = per-qubit reference (150q)"
    (QCheck2.Gen.pair (Helpers.pauli_string_gen 150)
       (Helpers.pauli_string_gen 150))
    (fun (p, q) ->
      let k, r = Pauli_string.mul p q in
      let phase = ref 0 in
      let bits_ok = ref true in
      for i = 0 to 149 do
        let ki, ri = Pauli.mul (Pauli_string.get p i) (Pauli_string.get q i) in
        phase := !phase + ki;
        if not (Pauli.equal ri (Pauli_string.get r i)) then bits_ok := false
      done;
      !bits_ok && k = !phase mod 4)

let prop_weight_support =
  Helpers.qtest "weight equals support size" (Helpers.pauli_string_gen 8)
    (fun p -> Pauli_string.weight p = List.length (Pauli_string.support_list p))

let prop_self_commutes =
  Helpers.qtest "every string commutes with itself" (Helpers.pauli_string_gen 6)
    (fun p -> Pauli_string.commutes p p)

(* Ascending sites on a register of at most 200 qubits, often
   straddling the bit-vector word boundaries 61/62 and 123/124. *)
let sites_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 200 in
  let* straddle =
    oneofl [ []; [ 61; 62 ]; [ 123; 124 ]; [ 61; 62; 123; 124 ]; [ 0; 199 ] ]
  in
  let* extra = list_size (int_range 0 5) (int_range 0 (n - 1)) in
  let sites =
    List.sort_uniq compare (List.filter (fun q -> q < n) straddle @ extra)
  in
  return (n, Array.of_list (if sites = [] then [ n - 1 ] else sites))

let prop_restrict_inverts_embed =
  Helpers.qtest ~count:300 "restrict inverts embedding at sites"
    (let open QCheck2.Gen in
     let* n, sites = sites_gen in
     let* a = Helpers.pauli_string_gen (Array.length sites) in
     return (n, sites, a))
    (fun (n, sites, a) ->
      Pauli_string.equal a
        (Pauli_string.restrict (Helpers.embed_string n sites a) sites))

(* [commutes] folds every word into one parity; the reference counts
   anticommuting qubits one by one, across the 62-bit word boundaries. *)
let prop_commutes_per_qubit =
  Helpers.qtest ~count:300 "commutes = per-qubit anticommutation parity (150q)"
    QCheck2.Gen.(pair (Helpers.pauli_string_gen 150) (Helpers.pauli_string_gen 150))
    (fun (p, q) ->
      let odd = ref false in
      for i = 0 to 149 do
        if not (Pauli.commutes (Pauli_string.get p i) (Pauli_string.get q i))
        then odd := not !odd
      done;
      Pauli_string.commutes p q = not !odd)

(* Grouping, core compression and the equivalence checker call
   [commutes] per pair and synthesis calls [weight] per term, so neither
   may allocate. *)
let test_commutes_weight_allocate_nothing () =
  let p = Pauli_string.of_string (String.init 100 (fun i -> "IXYZ".[i mod 4])) in
  let q = Pauli_string.of_string (String.init 100 (fun i -> "ZYXI".[i * 7 mod 4])) in
  let calls = 1000 in
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  List.iter
    (fun (name, f) ->
      let w = words f in
      if w > 0.0 then
        Alcotest.failf "%s allocated %.1f words per call on 100 qubits" name w)
    [
      ("commutes", fun () -> ignore (Sys.opaque_identity (Pauli_string.commutes p q)));
      ("weight", fun () -> ignore (Sys.opaque_identity (Pauli_string.weight p)));
    ]

let () =
  Alcotest.run "pauli"
    [
      ( "pauli-1q",
        [
          Alcotest.test_case "char roundtrip" `Quick test_char_roundtrip;
          Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "commutation table" `Quick test_commutation_table;
          Alcotest.test_case "mul vs matrices" `Quick test_mul_vs_matrices;
        ] );
      ( "pauli-string",
        [
          Alcotest.test_case "parse" `Quick test_string_parse;
          Alcotest.test_case "set/get" `Quick test_string_set_get;
          Alcotest.test_case "known commutation" `Quick test_known_commutation;
          Alcotest.test_case "commutes and weight allocate nothing" `Quick
            test_commutes_weight_allocate_nothing;
        ] );
      ( "props",
        [
          prop_commutes_matches_matrices;
          prop_mul_matches_matrices;
          prop_mul_matches_per_qubit;
          prop_weight_support;
          prop_self_commutes;
          prop_commutes_per_qubit;
        ] );
      ("sites", [ prop_restrict_inverts_embed ]);
    ]
