module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Clifford2q = Phoenix_pauli.Clifford2q
module Gate = Phoenix_circuit.Gate

(* The frame stores the images of the symplectic generators under the
   pullback map M(σ) = F† σ F: [xs.(q) = M(X_q)], [zs.(q) = M(Z_q)],
   each a sign bit plus an unsigned Pauli string. *)
type t = {
  n : int;
  xs : (bool * Pauli_string.t) array;
  zs : (bool * Pauli_string.t) array;
}

let identity n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "Frame.identity: need n >= 1, got %d" n);
  {
    n;
    xs = Array.init n (fun q -> false, Pauli_string.single n q Pauli.X);
    zs = Array.init n (fun q -> false, Pauli_string.single n q Pauli.Z);
  }

let num_qubits t = t.n

let copy t = { t with xs = Array.copy t.xs; zs = Array.copy t.zs }

(* M(σ) for an arbitrary Pauli string, multiplying generator images.
   Images of commuting Paulis commute, so the accumulated i-power is
   always even; [Y_q = i·X_q·Z_q] contributes one extra factor of i. *)
let image t p =
  let phase = ref 0 in
  let acc = ref (Pauli_string.identity t.n) in
  let mul_in (neg, s) =
    if neg then phase := !phase + 2;
    let k, r = Pauli_string.mul !acc s in
    phase := !phase + k;
    acc := r
  in
  List.iter
    (fun q ->
      match Pauli_string.get p q with
      | Pauli.I -> ()
      | Pauli.X -> mul_in t.xs.(q)
      | Pauli.Z -> mul_in t.zs.(q)
      | Pauli.Y ->
        phase := !phase + 1;
        mul_in t.xs.(q);
        mul_in t.zs.(q))
    (Pauli_string.support_list p);
  match !phase mod 4 with
  | 0 -> false, !acc
  | 2 -> true, !acc
  | _ -> assert false (* Clifford image of a Hermitian Pauli is Hermitian *)

let negate (neg, s) = not neg, s

let two_qubit_string n (qa, pa) (qb, pb) =
  Pauli_string.set (Pauli_string.single n qa pa) qb pb

(* Fold gate g: M' = M ∘ e_g with e_g(σ) = g† σ g, rewriting only the
   generator images e_g moves. *)
let rec apply_gate t g =
  match g with
  | Gate.G1 (Gate.H, q) ->
    let x = t.xs.(q) in
    t.xs.(q) <- t.zs.(q);
    t.zs.(q) <- x
  | Gate.G1 (Gate.S, q) ->
    (* S† X S = -Y *)
    t.xs.(q) <- negate (image t (Pauli_string.single t.n q Pauli.Y))
  | Gate.G1 (Gate.Sdg, q) ->
    (* S X S† = Y *)
    t.xs.(q) <- image t (Pauli_string.single t.n q Pauli.Y)
  | Gate.G1 (Gate.X, q) -> t.zs.(q) <- negate t.zs.(q)
  | Gate.G1 (Gate.Y, q) ->
    t.xs.(q) <- negate t.xs.(q);
    t.zs.(q) <- negate t.zs.(q)
  | Gate.G1 (Gate.Z, q) -> t.xs.(q) <- negate t.xs.(q)
  | Gate.Cnot (c, tq) ->
    let xc = image t (two_qubit_string t.n (c, Pauli.X) (tq, Pauli.X)) in
    let zt = image t (two_qubit_string t.n (c, Pauli.Z) (tq, Pauli.Z)) in
    t.xs.(c) <- xc;
    t.zs.(tq) <- zt
  | Gate.Swap (a, b) ->
    let xa = t.xs.(a) and za = t.zs.(a) in
    t.xs.(a) <- t.xs.(b);
    t.zs.(a) <- t.zs.(b);
    t.xs.(b) <- xa;
    t.zs.(b) <- za
  | Gate.Cliff2 c ->
    List.iter
      (function
        | Clifford2q.H q -> apply_gate t (Gate.G1 (Gate.H, q))
        | Clifford2q.S q -> apply_gate t (Gate.G1 (Gate.S, q))
        | Clifford2q.Sdg q -> apply_gate t (Gate.G1 (Gate.Sdg, q))
        | Clifford2q.Cnot (a, b) -> apply_gate t (Gate.Cnot (a, b)))
      (Clifford2q.decompose c)
  | Gate.Su4 { parts; _ } -> List.iter (apply_gate t) parts
  | Gate.G1 ((Gate.T | Gate.Tdg | Gate.Rx _ | Gate.Ry _ | Gate.Rz _), _)
  | Gate.Rpp _ ->
    invalid_arg
      (Printf.sprintf "Frame.apply_gate: non-Clifford gate %s"
         (Gate.to_string g))

(* Fold exp(-i k π/4 σ) — k quarter-turns about the wire-level Pauli
   axis σ — into the frame.  For a generator P anticommuting with σ,
   conjugation gives e^{ikπ/4 σ} P e^{-ikπ/4 σ} = P cos(kπ/2) +
   i σP sin(kπ/2), i.e. iσP / -P / -iσP for k = 1 / 2 / 3; commuting
   generators are fixed.  [k = 1] on a single-qubit Z axis reproduces
   the [S] case of {!apply_gate} exactly (Z·X = iY, so iσP = -Y).
   All new images are computed against the old frame before any
   assignment, since the pullback of σP reads other generators. *)
let apply_pauli_rotation t sigma k =
  let k = (k mod 4 + 4) mod 4 in
  if k <> 0 then begin
    let conj q gen_p stored =
      let anticommutes =
        match Pauli_string.get sigma q with
        | Pauli.I -> false
        | s -> s <> gen_p
      in
      if not anticommutes then stored
      else if k = 2 then negate stored
      else
        let s, prod = Pauli_string.mul sigma (Pauli_string.single t.n q gen_p) in
        let neg, img = image t prod in
        (* i^{±1} σ·gen = i^{±1+s}·prod, then the frame's own sign. *)
        let ipow = ((if k = 1 then 1 else 3) + s + if neg then 2 else 0) mod 4 in
        (match ipow with
        | 0 -> (false, img)
        | 2 -> (true, img)
        | _ -> assert false (* conjugated Hermitian Pauli stays Hermitian *))
    in
    let new_xs = Array.init t.n (fun q -> conj q Pauli.X t.xs.(q)) in
    let new_zs = Array.init t.n (fun q -> conj q Pauli.Z t.zs.(q)) in
    Array.blit new_xs 0 t.xs 0 t.n;
    Array.blit new_zs 0 t.zs 0 t.n
  end

(* Frame of the concatenated scan "a's gates, then b's gates": with
   F = F_b·F_a as unitaries, (F† σ F) = M_a(M_b(σ)), so each generator
   image of [a ⋅ then b] is b's stored image pushed through a. *)
let compose a b =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Frame.compose: %d vs %d qubits" a.n b.n);
  let through (neg, s) =
    let neg', s' = image a s in
    (neg <> neg', s')
  in
  {
    n = a.n;
    xs = Array.map through b.xs;
    zs = Array.map through b.zs;
  }

let rec is_clifford_gate = function
  | Gate.G1 ((Gate.H | Gate.S | Gate.Sdg | Gate.X | Gate.Y | Gate.Z), _)
  | Gate.Cnot _ | Gate.Swap _ | Gate.Cliff2 _ ->
    true
  | Gate.G1 ((Gate.T | Gate.Tdg | Gate.Rx _ | Gate.Ry _ | Gate.Rz _), _)
  | Gate.Rpp _ ->
    false
  | Gate.Su4 { parts; _ } -> List.for_all is_clifford_gate parts

let equal a b =
  let same (na, sa) (nb, sb) = na = nb && Pauli_string.equal sa sb in
  a.n = b.n
  &&
  let rec go q =
    q >= a.n || (same a.xs.(q) b.xs.(q) && same a.zs.(q) b.zs.(q) && go (q + 1))
  in
  go 0

let is_identity t =
  let gen_fixed q (neg, s) p =
    (not neg) && Pauli_string.equal s (Pauli_string.single t.n q p)
  in
  let rec go q =
    q >= t.n
    || (gen_fixed q t.xs.(q) Pauli.X && gen_fixed q t.zs.(q) Pauli.Z && go (q + 1))
  in
  go 0
