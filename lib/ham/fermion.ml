module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string

type encoding = Jordan_wigner | Bravyi_kitaev

let encoding_to_string = function
  | Jordan_wigner -> "JW"
  | Bravyi_kitaev -> "BK"

let check_mode n j =
  if j < 0 || j >= n then invalid_arg "Fermion: mode index out of range"

let half = { Complex.re = 0.5; im = 0.0 }
let half_i = { Complex.re = 0.0; im = 0.5 }

(* Build a Pauli string by placing operators on given qubit sets. *)
let place n assignments =
  List.fold_left
    (fun acc (qs, p) -> List.fold_left (fun s q -> Pauli_string.set s q p) acc qs)
    (Pauli_string.identity n) assignments

(* --- Jordan–Wigner: a_j = Z_{<j} (X_j + iY_j)/2 --- *)

let jw_ladder n j ~dagger =
  check_mode n j;
  let chain = List.init j (fun k -> k) in
  let x_part = place n [ chain, Pauli.Z; [ j ], Pauli.X ] in
  let y_part = place n [ chain, Pauli.Z; [ j ], Pauli.Y ] in
  let sign = if dagger then Complex.neg half_i else half_i in
  Pauli_sum.add (Pauli_sum.of_term half x_part) (Pauli_sum.of_term sign y_part)

(* --- Bravyi–Kitaev index sets from the Fenwick-tree construction --- *)

type fenwick = { parent : int array; lo : int array }

let fenwick_cache : (int, fenwick) Hashtbl.t = Hashtbl.create 8

(* SRL: FENWICK(l, r) attaches pivot ⌊(l+r)/2⌋ to r and recurses on both
   halves; each node then stores the contiguous mode interval [lo_j, j]. *)
let fenwick n =
  match Hashtbl.find_opt fenwick_cache n with
  | Some f -> f
  | None ->
    let parent = Array.make n (-1) in
    let rec build l r =
      if l < r then begin
        let m = (l + r) / 2 in
        parent.(m) <- r;
        build l m;
        build (m + 1) r
      end
    in
    build 0 (n - 1);
    let children = Array.make n [] in
    Array.iteri
      (fun j p -> if p >= 0 then children.(p) <- j :: children.(p))
      parent;
    let lo = Array.make n 0 in
    (* process nodes in increasing order: children of j are all < j *)
    for j = 0 to n - 1 do
      lo.(j) <- List.fold_left (fun acc c -> min acc lo.(c)) j children.(j)
    done;
    let f = { parent; lo } in
    Hashtbl.add fenwick_cache n f;
    f

let bk_update_set n j =
  check_mode n j;
  let f = fenwick n in
  let rec up k acc = if k < 0 then List.rev acc else up f.parent.(k) (k :: acc) in
  up f.parent.(j) []

let bk_flip_set n j =
  check_mode n j;
  let f = fenwick n in
  List.filter (fun k -> f.parent.(k) = j) (List.init j (fun k -> k))

(* Parity of modes [0, j): greedy cover by stored intervals, exactly the
   binary-indexed-tree prefix walk. *)
let bk_parity_set n j =
  check_mode n j;
  let f = fenwick n in
  let rec walk k acc = if k < 0 then List.rev acc else walk (f.lo.(k) - 1) (k :: acc) in
  walk (j - 1) []

let bk_remainder_set n j =
  let flips = bk_flip_set n j in
  List.filter (fun k -> not (List.mem k flips)) (bk_parity_set n j)

(* a†_j = ½·X_{U(j)} X_j Z_{P(j)} − (i/2)·X_{U(j)} Y_j Z_{R(j)} *)
let bk_ladder n j ~dagger =
  check_mode n j;
  let u = bk_update_set n j in
  let p = bk_parity_set n j in
  let r = bk_remainder_set n j in
  let x_part = place n [ u, Pauli.X; [ j ], Pauli.X; p, Pauli.Z ] in
  let y_part = place n [ u, Pauli.X; [ j ], Pauli.Y; r, Pauli.Z ] in
  let sign = if dagger then Complex.neg half_i else half_i in
  Pauli_sum.add (Pauli_sum.of_term half x_part) (Pauli_sum.of_term sign y_part)

(* One- and two-body term construction revisits the same modes over and
   over (every excitation pair/quadruple re-derives its ladder operators),
   so the encoded sums are memoized.  [Pauli_sum.t] is persistent, making
   the shared values safe to hand out; the same pattern as [fenwick_cache]
   above. *)
let ladder_cache : (encoding * int * int * bool, Pauli_sum.t) Hashtbl.t =
  Hashtbl.create 64

let ladder enc n j ~dagger =
  let key = (enc, n, j, dagger) in
  match Hashtbl.find_opt ladder_cache key with
  | Some s -> s
  | None ->
    let s =
      match enc with
      | Jordan_wigner -> jw_ladder n j ~dagger
      | Bravyi_kitaev -> bk_ladder n j ~dagger
    in
    Hashtbl.add ladder_cache key s;
    s

let creation enc n j = ladder enc n j ~dagger:true
let annihilation enc n j = ladder enc n j ~dagger:false

let number_operator enc n j =
  Pauli_sum.mul (creation enc n j) (annihilation enc n j)

let i_times t = Pauli_sum.scale Complex.i t

let excitation_single enc n ~p ~q =
  if p = q then invalid_arg "Fermion.excitation_single: equal modes";
  let t = Pauli_sum.mul (creation enc n p) (annihilation enc n q) in
  i_times (Pauli_sum.sub t (Pauli_sum.dagger t))

let excitation_double enc n ~p ~q ~r ~s =
  let modes = [ p; q; r; s ] in
  if List.length (List.sort_uniq compare modes) <> 4 then
    invalid_arg "Fermion.excitation_double: modes must be distinct";
  let t =
    Pauli_sum.mul
      (Pauli_sum.mul (creation enc n p) (creation enc n q))
      (Pauli_sum.mul (annihilation enc n r) (annihilation enc n s))
  in
  i_times (Pauli_sum.sub t (Pauli_sum.dagger t))
