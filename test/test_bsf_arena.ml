(* Differential suite for the flat-arena BSF tableau.

   A deliberately naive reference implementation — one bool array per
   row half, textbook stabilizer sign rules, O(R²) pairwise cost, a
   direct transcription of the commuting-only peel fixpoint — is driven
   through the same random mutator sequences as the arena tableau.  Any
   divergence in rows, signs, cost, extracted terms, or digests flags a
   bug in the arena's word-packed fast paths or its incremental
   counters. *)

open Helpers
module Angle = Phoenix_pauli.Angle

let n = 5

(* --- the row-based reference ------------------------------------------ *)

type rrow = {
  x : bool array;
  z : bool array;
  mutable rneg : bool;
  rangle : float;
}

type rt = rrow array

let ref_of_terms terms : rt =
  Array.of_list
    (List.map
       (fun (p, angle) ->
         {
           x = Array.init n (fun q -> fst (Pauli.to_bits (Pauli_string.get p q)));
           z = Array.init n (fun q -> snd (Pauli.to_bits (Pauli_string.get p q)));
           rneg = false;
           rangle = angle;
         })
       terms)

(* Textbook conjugation rules, derived independently of lib/pauli/bsf.ml:
   H swaps X and Z (Y picks up a sign); S sends X to Y and Y to -X;
   S† sends Y to X and X to -Y; CNOT copies X forward and Z backward,
   with a sign iff the row restricted to (a,b) is XZ·(something
   anticommuting), i.e. x_a ∧ z_b ∧ (x_b = z_a). *)
let ref_h (t : rt) q =
  Array.iter
    (fun r ->
      if r.x.(q) && r.z.(q) then r.rneg <- not r.rneg;
      let xq = r.x.(q) in
      r.x.(q) <- r.z.(q);
      r.z.(q) <- xq)
    t

let ref_s (t : rt) q =
  Array.iter
    (fun r ->
      if r.x.(q) && r.z.(q) then r.rneg <- not r.rneg;
      r.z.(q) <- r.z.(q) <> r.x.(q))
    t

let ref_sdg (t : rt) q =
  Array.iter
    (fun r ->
      if r.x.(q) && not r.z.(q) then r.rneg <- not r.rneg;
      r.z.(q) <- r.z.(q) <> r.x.(q))
    t

let ref_cnot (t : rt) a b =
  Array.iter
    (fun r ->
      if r.x.(a) && r.z.(b) && Bool.equal r.x.(b) r.z.(a) then
        r.rneg <- not r.rneg;
      r.x.(b) <- r.x.(b) <> r.x.(a);
      r.z.(a) <- r.z.(a) <> r.z.(b))
    t

let ref_basis_gate t = function
  | Clifford2q.H q -> ref_h t q
  | Clifford2q.S q -> ref_s t q
  | Clifford2q.Sdg q -> ref_sdg t q
  | Clifford2q.Cnot (a, b) -> ref_cnot t a b

let ref_clifford2q t gate =
  List.iter (ref_basis_gate t) (Clifford2q.decompose gate)

let ref_pauli (r : rrow) =
  Pauli_string.of_list
    (List.init n (fun q -> Pauli.of_bits ~x:r.x.(q) ~z:r.z.(q)))

let ref_weight (r : rrow) =
  let w = ref 0 in
  for q = 0 to n - 1 do
    if r.x.(q) || r.z.(q) then incr w
  done;
  !w

let ref_commutes (r1 : rrow) (r2 : rrow) =
  let sym = ref false in
  for q = 0 to n - 1 do
    if (r1.x.(q) && r2.z.(q)) <> (r2.x.(q) && r1.z.(q)) then sym := not !sym
  done;
  not !sym

(* Eq. 6 by the definition: pairwise union supports, no incremental
   counters, no closed forms. *)
let ref_cost (t : rt) =
  let rows = Array.length t in
  let union_card f g =
    let c = ref 0 in
    for q = 0 to n - 1 do
      if f q || g q then incr c
    done;
    !c
  in
  let w_tot =
    union_card
      (fun q -> Array.exists (fun r -> r.x.(q) || r.z.(q)) t)
      (fun _ -> false)
  in
  let n_nl =
    Array.fold_left (fun acc r -> if ref_weight r > 1 then acc + 1 else acc) 0 t
  in
  let sup = ref 0 and xs = ref 0 and zs = ref 0 in
  for i = 0 to rows - 1 do
    for j = i + 1 to rows - 1 do
      let ri = t.(i) and rj = t.(j) in
      sup :=
        !sup
        + union_card
            (fun q -> ri.x.(q) || ri.z.(q))
            (fun q -> rj.x.(q) || rj.z.(q));
      xs := !xs + union_card (fun q -> ri.x.(q)) (fun q -> rj.x.(q));
      zs := !zs + union_card (fun q -> ri.z.(q)) (fun q -> rj.z.(q))
    done
  done;
  (float_of_int (w_tot * n_nl * n_nl)
  +. float_of_int !sup
  +. (0.5 *. float_of_int (!xs + !zs)))

(* The commuting-only peel, transcribed from the .mli contract: a local
   (weight ≤ 1) row may only leave if it commutes with every row that
   stays behind.  Locals that anticommute with a survivor are demoted to
   stayers themselves, which can strand further locals — iterate to a
   fixpoint.  Peeled rows keep program order. *)
let ref_pop_local ~commuting_only (t : rt) =
  let rows = Array.length t in
  let local = Array.init rows (fun i -> ref_weight t.(i) <= 1) in
  if commuting_only then begin
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to rows - 1 do
        if local.(i) then
          for j = 0 to rows - 1 do
            if (not local.(j)) && not (ref_commutes t.(i) t.(j)) then begin
              local.(i) <- false;
              changed := true
            end
          done
      done
    done
  end;
  let peeled = ref [] and kept = ref [] in
  for i = rows - 1 downto 0 do
    if local.(i) then peeled := t.(i) :: !peeled else kept := t.(i) :: !kept
  done;
  (!peeled, Array.of_list !kept)

(* --- random mutator sequences ----------------------------------------- *)

type op =
  | OpH of int
  | OpS of int
  | OpSdg of int
  | OpCnot of int * int
  | OpC2 of Clifford2q.t

let op_gen =
  let open QCheck2.Gen in
  let q = int_range 0 (n - 1) in
  let distinct_pair =
    let* a = q in
    let* b = int_range 0 (n - 2) in
    return (a, if b >= a then b + 1 else b)
  in
  oneof
    [
      map (fun q -> OpH q) q;
      map (fun q -> OpS q) q;
      map (fun q -> OpSdg q) q;
      map (fun (a, b) -> OpCnot (a, b)) distinct_pair;
      map (fun g -> OpC2 g) (clifford2q_gen n);
    ]

let scenario_gen =
  QCheck2.Gen.pair (terms_gen n 8)
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30) op_gen)

let apply_bsf t = function
  | OpH q -> Bsf.apply_h t q
  | OpS q -> Bsf.apply_s t q
  | OpSdg q -> Bsf.apply_sdg t q
  | OpCnot (a, b) -> Bsf.apply_cnot t a b
  | OpC2 g -> Bsf.apply_clifford2q t g

let apply_ref t = function
  | OpH q -> ref_h t q
  | OpS q -> ref_s t q
  | OpSdg q -> ref_sdg t q
  | OpCnot (a, b) -> ref_cnot t a b
  | OpC2 g -> ref_clifford2q t g

let build (terms, ops) =
  let t = Bsf.of_terms n terms in
  let r = ref_of_terms terms in
  List.iter (fun op -> apply_bsf t op; apply_ref r op) ops;
  (t, r)

let rows_match t (r : rt) =
  Bsf.num_rows t = Array.length r
  && List.for_all2
       (fun (row : Bsf.row) rr ->
         Pauli_string.equal row.Bsf.pauli (ref_pauli rr)
         && Bool.equal row.Bsf.neg rr.rneg
         && row.Bsf.angle = rr.rangle)
       (Bsf.rows t) (Array.to_list r)

(* --- properties -------------------------------------------------------- *)

let prop_rows =
  qtest ~count:300 "mutated rows match row-based reference" scenario_gen
    (fun sc ->
      let t, r = build sc in
      rows_match t r)

let prop_cost =
  qtest ~count:300 "cost matches O(R^2) reference exactly" scenario_gen
    (fun sc ->
      let t, r = build sc in
      (* All-integer arithmetic on both sides: equality is exact. *)
      Bsf.cost t = ref_cost r && Bsf.cost_reference t = ref_cost r)

let prop_to_terms =
  qtest ~count:300 "to_terms folds signs into angles" scenario_gen
    (fun sc ->
      let t, r = build sc in
      let expected =
        Array.to_list
          (Array.map
             (fun rr ->
               ( ref_pauli rr,
                 if rr.rneg then Angle.neg rr.rangle else rr.rangle ))
             r)
      in
      List.for_all2
        (fun (p, a) (p', a') -> Pauli_string.equal p p' && a = a')
        (Bsf.to_terms t) expected)

let prop_digest_copy =
  qtest ~count:300 "canonical digest survives copy and views" scenario_gen
    (fun sc ->
      let t, _ = build sc in
      let d = Bsf.canonical_digest t in
      d = Bsf.canonical_digest (Bsf.copy t)
      && d = Bsf.digest_of_canonical_form (Bsf.canonical_form t))

let check_pop ~commuting_only sc =
  let t, r = build sc in
  let peeled = Bsf.pop_local_rows ~commuting_only t in
  let rpeeled, rkept = ref_pop_local ~commuting_only r in
  List.length peeled = List.length rpeeled
  && List.for_all2
       (fun (row : Bsf.row) rr ->
         Pauli_string.equal row.Bsf.pauli (ref_pauli rr)
         && Bool.equal row.Bsf.neg rr.rneg
         && row.Bsf.angle = rr.rangle)
       peeled rpeeled
  && rows_match t rkept
  && Bsf.cost t = ref_cost rkept

let prop_pop_local =
  qtest ~count:300 "pop_local_rows matches reference peel" scenario_gen
    (check_pop ~commuting_only:false)

let prop_pop_local_commuting =
  qtest ~count:300 "commuting-only peel matches reference fixpoint"
    scenario_gen
    (check_pop ~commuting_only:true)

let prop_audit_clean =
  qtest ~count:300 "incremental counters audit clean after mutation"
    scenario_gen
    (fun sc ->
      let t, _ = build sc in
      Bsf.audit t = [])

let () =
  Alcotest.run "bsf-arena"
    [
      ( "differential",
        [
          prop_rows;
          prop_cost;
          prop_to_terms;
          prop_digest_copy;
          prop_pop_local;
          prop_pop_local_commuting;
          prop_audit_clean;
        ] );
    ]
