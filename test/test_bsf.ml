(* The linchpin of the whole reproduction: the BSF tableau update rules
   must agree with dense-matrix Clifford conjugation, signs included. *)

module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Clifford2q = Helpers.Clifford2q
module Bsf = Helpers.Bsf
module Cmat = Helpers.Cmat
module Unitary = Helpers.Unitary
module Gate = Helpers.Gate

let n = 3

let sign_matrix neg m =
  if neg then Cmat.scale { Complex.re = -1.0; im = 0.0 } m else m

(* Check  U · P · U†  =  ±P'  where (±, P') comes from the tableau. *)
let conjugation_agrees u p row =
  let lhs = Cmat.mul (Cmat.mul u (Unitary.pauli_matrix p)) (Cmat.dagger u) in
  let rhs = sign_matrix row.Bsf.neg (Unitary.pauli_matrix row.Bsf.pauli) in
  Cmat.is_close ~tol:1e-9 lhs rhs

let prim_unitary n g =
  let u = Cmat.identity (1 lsl n) in
  Unitary.apply_gate u n g;
  u

let run_prim bsf = function
  | Gate.G1 (Gate.H, q) -> Bsf.apply_h bsf q
  | Gate.G1 (Gate.S, q) -> Bsf.apply_s bsf q
  | Gate.G1 (Gate.Sdg, q) -> Bsf.apply_sdg bsf q
  | Gate.Cnot (a, b) -> Bsf.apply_cnot bsf a b
  | _ -> assert false

let prim_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun q -> Gate.G1 (Gate.H, q)) (int_range 0 (n - 1));
      map (fun q -> Gate.G1 (Gate.S, q)) (int_range 0 (n - 1));
      map (fun q -> Gate.G1 (Gate.Sdg, q)) (int_range 0 (n - 1));
      map
        (fun (a, d) ->
          let b = (a + 1 + d) mod n in
          Gate.Cnot (a, b))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)));
    ]

let prop_primitives_match_matrices =
  Helpers.qtest ~count:500 "H/S/S†/CNOT tableau rules = dense conjugation"
    (QCheck2.Gen.pair prim_gen (Helpers.pauli_string_gen n))
    (fun (g, p) ->
      let bsf = Bsf.of_terms n [ p, 1.0 ] in
      run_prim bsf g;
      match Bsf.rows bsf with
      | [ row ] -> conjugation_agrees (prim_unitary n g) p row
      | _ -> false)

let prop_clifford2q_matches_matrices =
  Helpers.qtest ~count:500 "Clifford2Q generator rules = dense conjugation"
    (QCheck2.Gen.pair (Helpers.clifford2q_gen n) (Helpers.pauli_string_gen n))
    (fun (c, p) ->
      let bsf = Bsf.of_terms n [ p, 1.0 ] in
      Bsf.apply_clifford2q bsf c;
      match Bsf.rows bsf with
      | [ row ] -> conjugation_agrees (Helpers.clifford2q_unitary n c) p row
      | _ -> false)

let prop_clifford2q_involutive =
  Helpers.qtest ~count:200 "applying a generator twice is the identity"
    (QCheck2.Gen.pair (Helpers.clifford2q_gen n) (Helpers.pauli_string_gen n))
    (fun (c, p) ->
      let bsf = Bsf.of_terms n [ p, 1.0 ] in
      Bsf.apply_clifford2q bsf c;
      Bsf.apply_clifford2q bsf c;
      match Bsf.rows bsf with
      | [ row ] -> Pauli_string.equal row.Bsf.pauli p && not row.Bsf.neg
      | _ -> false)

let prop_conjugation_preserves_commutation =
  Helpers.qtest ~count:200 "conjugation preserves pairwise commutation"
    (QCheck2.Gen.triple (Helpers.clifford2q_gen n)
       (Helpers.nontrivial_pauli_string_gen n)
       (Helpers.nontrivial_pauli_string_gen n))
    (fun (c, p, q) ->
      let before = Pauli_string.commutes p q in
      let bsf = Bsf.of_terms n [ p, 1.0; q, 2.0 ] in
      Bsf.apply_clifford2q bsf c;
      match Bsf.rows bsf with
      | [ r1; r2 ] -> Pauli_string.commutes r1.Bsf.pauli r2.Bsf.pauli = before
      | _ -> false)

(* Directionality: gadget(P,θ) = C† · gadget(C P C†, ±θ) · C. *)
let prop_conjugated_gadget_equivalence =
  Helpers.qtest ~count:200 "gadget(P,θ) = C·gadget(P',θ')·C (C Hermitian)"
    (QCheck2.Gen.triple (Helpers.clifford2q_gen n)
       (Helpers.nontrivial_pauli_string_gen n)
       Helpers.angle_gen)
    (fun (c, p, theta) ->
      let bsf = Bsf.of_terms n [ p, theta ] in
      Bsf.apply_clifford2q bsf c;
      match Bsf.to_terms bsf with
      | [ (p', theta') ] ->
        let uc = Helpers.clifford2q_unitary n c in
        let lhs = Unitary.gadget_matrix p theta in
        let rhs =
          Cmat.mul (Cmat.mul (Cmat.dagger uc) (Unitary.gadget_matrix p' theta')) uc
        in
        Cmat.is_close ~tol:1e-8 lhs rhs
      | _ -> false)

(* --- Incremental column statistics (the delta-cost engine) --- *)

(* Counter maintenance must survive arbitrary op interleavings, including
   row removal.  Equality below is exact (=, not within-epsilon): the
   incremental and reference cost paths evaluate the same closed-form
   expression over what must be identical integer counters, so any
   divergence at all is a maintenance bug. *)
let nq = 5

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      3, map (fun q -> `H q) (int_range 0 (nq - 1));
      3, map (fun q -> `S q) (int_range 0 (nq - 1));
      3, map (fun q -> `Sdg q) (int_range 0 (nq - 1));
      ( 6,
        map
          (fun (a, d) -> `Cnot (a, (a + 1 + d) mod nq))
          (pair (int_range 0 (nq - 1)) (int_range 0 (nq - 2))) );
      1, return `Pop;
    ]

let apply_op bsf = function
  | `H q -> Bsf.apply_h bsf q
  | `S q -> Bsf.apply_s bsf q
  | `Sdg q -> Bsf.apply_sdg bsf q
  | `Cnot (a, b) -> Bsf.apply_cnot bsf a b
  | `Pop -> ignore (Bsf.pop_local_rows bsf)

(* Recompute every maintained aggregate from the row snapshots alone. *)
let counters_agree bsf =
  let rows = Bsf.rows bsf in
  let weights = List.map (fun r -> Pauli_string.weight r.Bsf.pauli) rows in
  let w_tot =
    List.length
      (List.sort_uniq compare
         (List.concat_map (fun r -> Pauli_string.support_list r.Bsf.pauli) rows))
  in
  let n_nl = List.length (List.filter (fun w -> w > 1) weights) in
  Bsf.cost bsf = Bsf.cost_reference bsf
  && Bsf.total_weight bsf = w_tot
  && Bsf.nonlocal_count bsf = n_nl
  && List.for_all
       (fun (i, w) -> Bsf.row_weight bsf i = w)
       (List.mapi (fun i w -> i, w) weights)

let prop_incremental_cost_exact =
  Helpers.qtest ~count:300 "incremental counters = fresh recomputation"
    (QCheck2.Gen.pair (Helpers.terms_gen nq 8)
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 40) op_gen))
    (fun (terms, ops) ->
      let bsf = Bsf.of_terms nq terms in
      if not (counters_agree bsf) then false
      else begin
        List.iter (apply_op bsf) ops;
        counters_agree bsf && counters_agree (Bsf.copy bsf)
      end)

(* Delta evaluation must predict, bit for bit, the cost the tableau would
   report after actually conjugating — for every generator, on every
   ordered qubit pair, in both workspace operand orders. *)
let prop_delta_eval_exact =
  Helpers.qtest ~count:150 "Delta.eval = cost after apply (all pairs × kinds)"
    (Helpers.terms_gen nq 6)
    (fun terms ->
      let bsf = Bsf.of_terms nq terms in
      let before = Bsf.cost bsf in
      let ws = Bsf.Delta.create () in
      let ok = ref true in
      for a = 0 to nq - 1 do
        for b = a + 1 to nq - 1 do
          Bsf.Delta.load ws bsf ~a ~b;
          List.iter
            (fun kind ->
              List.iter
                (fun swapped ->
                  let g =
                    if swapped then Clifford2q.make kind b a
                    else Clifford2q.make kind a b
                  in
                  let t = Bsf.copy bsf in
                  Bsf.apply_clifford2q t g;
                  let actual = Bsf.cost t in
                  if Bsf.Delta.eval ws g <> actual then ok := false;
                  if Bsf.Delta.eval_kind ws kind ~swapped <> actual then
                    ok := false;
                  if Bsf.eval_clifford2q_delta bsf g <> actual -. before then
                    ok := false)
                [ false; true ])
            Clifford2q.all_kinds
        done
      done;
      !ok)

let test_delta_eval_wrong_pair () =
  let bsf = Bsf.of_terms 3 [ Pauli_string.of_string "XYZ", 1.0 ] in
  let ws = Bsf.Delta.create () in
  Bsf.Delta.load ws bsf ~a:0 ~b:1;
  Alcotest.check_raises "foreign pair rejected"
    (Invalid_argument "Bsf.Delta.eval: gate does not act on the loaded pair")
    (fun () -> ignore (Bsf.Delta.eval ws (Clifford2q.make Clifford2q.CXX 0 2)))

(* The motivating example of Fig. 1(b): conjugating
   [ZYY; ZZY; XYY; XZY] by C(X,Y) on qubits (1,2) leaves only weight-2
   Pauli strings. *)
let test_fig1b_simplification () =
  let strings = [ "ZYY"; "ZZY"; "XYY"; "XZY" ] in
  let terms = List.map (fun s -> Pauli_string.of_string s, 1.0) strings in
  let bsf = Bsf.of_terms 3 terms in
  Alcotest.(check int) "before: all weight 3" 12
    (List.fold_left (fun acc i -> acc + Bsf.row_weight bsf i) 0 [ 0; 1; 2; 3 ]);
  Bsf.apply_clifford2q bsf (Clifford2q.make Clifford2q.CXY 1 2);
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d simplified" i)
        true
        (Bsf.row_weight bsf i <= 2))
    strings

let test_total_weight () =
  let bsf =
    Bsf.of_terms 4
      [ Pauli_string.of_string "XXII", 1.0; Pauli_string.of_string "IXZI", 1.0 ]
  in
  Alcotest.(check int) "union support" 3 (Bsf.total_weight bsf);
  Alcotest.(check (list int)) "indices" [ 0; 1; 2 ] (Bsf.support_indices bsf);
  Alcotest.(check int) "nonlocal count" 2 (Bsf.nonlocal_count bsf)

let test_pop_local_rows () =
  let bsf =
    Bsf.of_terms 3
      [
        Pauli_string.of_string "XII", 0.1;
        Pauli_string.of_string "XYZ", 0.2;
        Pauli_string.of_string "IIZ", 0.3;
      ]
  in
  let peeled = Bsf.pop_local_rows bsf in
  Alcotest.(check int) "two peeled" 2 (List.length peeled);
  Alcotest.(check int) "one kept" 1 (Bsf.num_rows bsf);
  match peeled with
  | [ a; b ] ->
    Alcotest.(check string) "order preserved" "XII"
      (Pauli_string.to_string a.Bsf.pauli);
    Alcotest.(check string) "order preserved 2" "IIZ"
      (Pauli_string.to_string b.Bsf.pauli);
    Alcotest.(check (float 1e-12)) "angle" 0.1 a.Bsf.angle
  | _ -> Alcotest.fail "expected two rows"

let test_pop_local_commuting_only () =
  (* ZII anticommutes with the remaining XYZ on qubit 0, so exact peeling
     must keep it; IIZ commutes (Z vs Z) and leaves. *)
  let bsf =
    Bsf.of_terms 3
      [
        Pauli_string.of_string "ZII", 0.1;
        Pauli_string.of_string "XYZ", 0.2;
        Pauli_string.of_string "IIZ", 0.3;
      ]
  in
  let peeled = Bsf.pop_local_rows ~commuting_only:true bsf in
  Alcotest.(check int) "only commuting peeled" 1 (List.length peeled);
  Alcotest.(check int) "two kept" 2 (Bsf.num_rows bsf)

let test_cost_single_row () =
  let bsf = Bsf.of_terms 3 [ Pauli_string.of_string "XXI", 1.0 ] in
  (* single nonlocal row: cost = w_tot · n_nl² = 2·1 = 2, no pair terms *)
  Alcotest.(check (float 1e-9)) "cost" 2.0 (Bsf.cost bsf)

let test_cost_two_rows () =
  let bsf =
    Bsf.of_terms 3
      [ Pauli_string.of_string "XXI", 1.0; Pauli_string.of_string "IZZ", 1.0 ]
  in
  (* w_tot = 3, n_nl = 2 → 12; pair sup = |{0,1}∪{1,2}| = 3;
     x-part |110∨000| = 2, z-part |000∨011| = 2 → ½(2+2) = 2; total 17 *)
  Alcotest.(check (float 1e-9)) "cost" 17.0 (Bsf.cost bsf)

let test_signs_cnot_yy () =
  (* CNOT (Y⊗Y) CNOT = -X⊗Z: classic sign case. *)
  let bsf = Bsf.of_terms 2 [ Pauli_string.of_string "YY", 1.0 ] in
  Bsf.apply_cnot bsf 0 1;
  match Bsf.rows bsf with
  | [ row ] ->
    Alcotest.(check string) "pauli" "XZ" (Pauli_string.to_string row.Bsf.pauli);
    Alcotest.(check bool) "sign" true row.Bsf.neg
  | _ -> Alcotest.fail "one row expected"

let test_to_terms_folds_sign () =
  let bsf = Bsf.of_terms 2 [ Pauli_string.of_string "YY", 0.7 ] in
  Bsf.apply_cnot bsf 0 1;
  match Bsf.to_terms bsf with
  | [ (p, theta) ] ->
    Alcotest.(check string) "pauli" "XZ" (Pauli_string.to_string p);
    Alcotest.(check (float 1e-12)) "angle negated" (-0.7) theta
  | _ -> Alcotest.fail "one term expected"

(* --- the audit flag's first read under parallel mutation ----------------

   PHOENIX_BSF_AUDIT is read on a process's first tableau mutation, and
   the first parallel simplify makes that read from several domains at
   once.  Each child process below releases four domains through a
   barrier straight into their first mutation; any exception fails the
   child.  The race only exists once per process, hence the fresh
   processes. *)

let race_child_var = "PHOENIX_TEST_BSF_RACE_CHILD"
let race_domains = 4
let race_processes = 128

let race_child () =
  let arrived = Atomic.make 0 in
  let tableaux =
    Array.init race_domains (fun _ ->
        Bsf.of_terms 2 [ Pauli_string.of_string "XZ", 0.5 ])
  in
  let first_mutation t () =
    Atomic.incr arrived;
    while Atomic.get arrived < race_domains do
      Domain.cpu_relax ()
    done;
    Bsf.apply_h t 0
  in
  let domains =
    Array.map (fun t -> Domain.spawn (first_mutation t)) tableaux
  in
  let clean =
    Array.fold_left
      (fun clean d ->
        match Domain.join d with () -> clean | exception _ -> false)
      true domains
  in
  exit (if clean then 0 else 1)

let test_first_mutation_race () =
  let env = Array.append [| race_child_var ^ "=1" |] (Unix.environment ()) in
  let failed = ref 0 in
  for _ = 1 to race_processes do
    let pid =
      Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failed
  done;
  Alcotest.(check int) "children whose first mutations raised" 0 !failed

let () =
  if Sys.getenv_opt race_child_var <> None then race_child ();
  Alcotest.run "bsf"
    [
      ( "props",
        [
          prop_primitives_match_matrices;
          prop_clifford2q_matches_matrices;
          prop_clifford2q_involutive;
          prop_conjugation_preserves_commutation;
          prop_conjugated_gadget_equivalence;
        ] );
      ( "delta-cost",
        [
          prop_incremental_cost_exact;
          prop_delta_eval_exact;
          Alcotest.test_case "foreign pair rejected" `Quick
            test_delta_eval_wrong_pair;
        ] );
      ( "unit",
        [
          Alcotest.test_case "Fig. 1(b) example" `Quick test_fig1b_simplification;
          Alcotest.test_case "total weight" `Quick test_total_weight;
          Alcotest.test_case "pop local rows" `Quick test_pop_local_rows;
          Alcotest.test_case "pop local commuting-only" `Quick
            test_pop_local_commuting_only;
          Alcotest.test_case "cost single row" `Quick test_cost_single_row;
          Alcotest.test_case "cost two rows" `Quick test_cost_two_rows;
          Alcotest.test_case "CNOT YY sign" `Quick test_signs_cnot_yy;
          Alcotest.test_case "to_terms folds sign" `Quick test_to_terms_folds_sign;
        ] );
      ( "audit-flag",
        [
          Alcotest.test_case "first mutation on 4 domains" `Quick
            test_first_mutation_race;
        ] );
    ]
