module Pauli = Phoenix_pauli.Pauli
module Clifford2q = Phoenix_pauli.Clifford2q
module Angle = Phoenix_pauli.Angle

type stage = Peephole | Rebase | Fold

(* --- angles -------------------------------------------------------------- *)

let eps = 1e-10

(* Range reduction lives in [Angle.normalize_const]; symbolic slots pass
   through unchanged. *)
let[@inline] normalize_angle t =
  if Angle.is_slot t then t else Angle.normalize_const t

(* A slot is never a zero rotation: its value is unknown until bind, and
   dropping it would change circuit structure per parameter value. *)
let[@inline] is_zero_angle t =
  (not (Angle.is_slot t)) && Float.abs (normalize_angle t) < eps

(* --- gate encoding ----------------------------------------------------------

   A buffered gate is one int, [kind lor (a lsl 8) lor (b lsl 35)], plus
   one float: the rotation angle, or the index of an [Su4] gate in the
   buffer's side table.  A 1Q gate has [b = a].  Bit 7 flags a deleted
   gate; its qubits stay readable so chains can walk through it. *)

let k_h = 0
let k_s = 1
let k_sdg = 2
let k_x = 3
let k_y = 4
let k_z = 5
let k_t = 6
let k_tdg = 7
let k_rx = 8
let k_ry = 9
let k_rz = 10
let k_phase = 11 (* folding's placeholder: an Rz whose angle is still summing *)
let k_cnot = 12
let k_swap = 13
let k_su4 = 14
let k_cliff2 = 16 (* + Clifford kind index, 6 kinds *)
let k_rpp = 32 (* + 4·p0 + p1 over Pauli indices I, X, Y, Z *)
let n_kinds = k_rpp + 16
let kind_mask = 0x7f
let dead = 0x80
let qubit_bits = 27
let qubit_mask = (1 lsl qubit_bits) - 1

let pack k a b = k lor (a lsl 8) lor (b lsl 35)
let kind op = op land kind_mask
let qa op = (op lsr 8) land qubit_mask
let qb op = op lsr 35
let is_live op = op land dead = 0

let p_i = 0
let p_x = 1
let p_y = 2
let p_z = 3

let pauli_index = function
  | Pauli.I -> p_i
  | Pauli.X -> p_x
  | Pauli.Y -> p_y
  | Pauli.Z -> p_z

let paulis = [| Pauli.I; Pauli.X; Pauli.Y; Pauli.Z |]
let cliff_kinds = Clifford2q.[| CXX; CYY; CZZ; CXY; CYZ; CZX |]

let cliff_index = function
  | Clifford2q.CXX -> 0
  | Clifford2q.CYY -> 1
  | Clifford2q.CZZ -> 2
  | Clifford2q.CXY -> 3
  | Clifford2q.CYZ -> 4
  | Clifford2q.CZX -> 5

let one_q_kind = function
  | Gate.H -> k_h
  | Gate.S -> k_s
  | Gate.Sdg -> k_sdg
  | Gate.X -> k_x
  | Gate.Y -> k_y
  | Gate.Z -> k_z
  | Gate.T -> k_t
  | Gate.Tdg -> k_tdg
  | Gate.Rx _ -> k_rx
  | Gate.Ry _ -> k_ry
  | Gate.Rz _ -> k_rz

(* The constant 1Q gates, indexed by kind ([k_h] to [k_tdg]). *)
let constant_one_q = Gate.[| H; S; Sdg; X; Y; Z; T; Tdg |]

(* Encode a gate other than [Su4] (whose side-table index the caller
   supplies as its angle). *)
let encode = function
  | Gate.G1 (k, q) -> pack (one_q_kind k) q q
  | Gate.Cnot (a, b) -> pack k_cnot a b
  | Gate.Swap (a, b) -> pack k_swap a b
  | Gate.Cliff2 { Clifford2q.kind; a; b } ->
    pack (k_cliff2 + cliff_index kind) a b
  | Gate.Rpp { p0; p1; a; b; _ } ->
    pack (k_rpp + (4 * pauli_index p0) + pauli_index p1) a b
  | Gate.Su4 { a; b; _ } -> pack k_su4 a b

let angle_of = function
  | Gate.G1 ((Gate.Rx t | Gate.Ry t | Gate.Rz t), _) | Gate.Rpp { theta = t; _ }
    ->
    t
  | Gate.G1
      ( ( Gate.H | Gate.S | Gate.Sdg | Gate.X | Gate.Y | Gate.Z | Gate.T
        | Gate.Tdg ),
        _ )
  | Gate.Cnot _ | Gate.Swap _ | Gate.Cliff2 _ | Gate.Su4 _ ->
    0.0

(* --- per-kind tables ----------------------------------------------------- *)

(* Axis decomposition of the 1Q gates that are Pauli rotations up to
   global phase (S = e^{iπ/4}·Rz(π/2), Z = i·Rz(π), X = i·Rx(π), …),
   with the optimizer's historical float expressions. *)
let two_pi = 4.0 *. Float.atan 1.0 *. 2.0

let fixed_angle =
  let a = Array.make (k_rz + 1) 0.0 in
  a.(k_s) <- two_pi /. 4.0;
  a.(k_sdg) <- -.two_pi /. 4.0;
  a.(k_z) <- two_pi /. 2.0;
  a.(k_t) <- two_pi /. 8.0;
  a.(k_tdg) <- -.two_pi /. 8.0;
  a.(k_x) <- two_pi /. 2.0;
  a.(k_y) <- two_pi /. 2.0;
  a

let[@inline] rotation_angle k t = if k >= k_rx then t else fixed_angle.(k)

let rotation_kind p = if p = p_x then k_rx else if p = p_y then k_ry else k_rz

(* The Pauli axis a live gate exposes on its first ([axis_a]) and second
   ([axis_b]) qubit, or -1: a CNOT commutes with Z-axis gates on its
   control and X-axis gates on its target.  For a 1Q gate [axis_a] is
   its rotation axis (-1 for H). *)
let axis_a, axis_b =
  let a = Array.make n_kinds (-1) and b = Array.make n_kinds (-1) in
  List.iter (fun k -> a.(k) <- p_z) [ k_s; k_sdg; k_z; k_t; k_tdg; k_rz ];
  List.iter (fun k -> a.(k) <- p_x) [ k_x; k_rx ];
  List.iter (fun k -> a.(k) <- p_y) [ k_y; k_ry ];
  a.(k_cnot) <- p_z;
  b.(k_cnot) <- p_x;
  Array.iteri
    (fun i c ->
      let s0, s1 = Clifford2q.kind_sigmas c in
      a.(k_cliff2 + i) <- pauli_index s0;
      b.(k_cliff2 + i) <- pauli_index s1)
    cliff_kinds;
  for p0 = 0 to 3 do
    for p1 = 0 to 3 do
      a.(k_rpp + (4 * p0) + p1) <- p0;
      b.(k_rpp + (4 * p0) + p1) <- p1
    done
  done;
  a, b

(* Kinds that cancel with their operands exchanged: SWAP and the
   symmetric Clifford2Q generators. *)
let symmetric =
  let t = Array.make n_kinds false in
  t.(k_swap) <- true;
  Array.iteri
    (fun i c -> t.(k_cliff2 + i) <- Clifford2q.is_symmetric c)
    cliff_kinds;
  t

(* [Clifford2q.decompose] once per kind, on qubits 0 and 1; a gate's
   expansion substitutes its own qubits for 0 and 1. *)
let cliff_templates =
  Array.map
    (fun c ->
      Clifford2q.decompose (Clifford2q.make c 0 1)
      |> List.map (function
           | Clifford2q.H q -> pack k_h q q
           | Clifford2q.S q -> pack k_s q q
           | Clifford2q.Sdg q -> pack k_sdg q q
           | Clifford2q.Cnot (a, b) -> pack k_cnot a b)
      |> Array.of_list)
    cliff_kinds

(* 1Q gates conjugating a Pauli into Z on one side of an [Rpp]. *)
let basis_length p = if p = p_x then 1 else if p = p_y then 2 else 0

(* Gates the rebase emits for [g]. *)
let rec expansion = function
  | Gate.G1 _ | Gate.Cnot _ -> 1
  | Gate.Cliff2 { Clifford2q.kind; _ } ->
    Array.length cliff_templates.(cliff_index kind)
  | Gate.Rpp { p0; p1; _ } ->
    3 + (2 * (basis_length (pauli_index p0) + basis_length (pauli_index p1)))
  | Gate.Swap _ -> 3
  | Gate.Su4 { parts; _ } ->
    List.fold_left (fun acc g -> acc + expansion g) 0 parts

let rec count_y = function
  | Gate.G1 (Gate.Y, _) -> 1
  | Gate.Su4 { parts; _ } ->
    List.fold_left (fun acc g -> acc + count_y g) 0 parts
  | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _ -> 0

(* --- the buffer ---------------------------------------------------------- *)

(* The circuit is the live gates of [0, len).  [heads] and [links] hold
   the peephole's per-qubit chains: [heads.(q)] is the last emitted gate
   on [q], [links.(2i)] / [links.(2i+1)] the gate before [i] on its
   first / second qubit, -1 for none.  They are allocated by the first
   peephole and shared by the next. *)
type t = {
  n : int;
  ops : int array;
  angles : float array;
  su4 : Gate.t array; (* [Su4] gates, indexed by their angle field *)
  mutable len : int;
  mutable live : int;
  mutable heads : int array;
  mutable links : int array;
}

(* Capacity: the rebase expansion of the input (at least one slot per
   gate), plus one slot per [Y], which folding turns into a phase and an
   [X].  Peephole never lengthens a circuit, a rebase emits exactly the
   expansion and folding at most one more gate per [Y], so every stage
   fits whatever the order. *)
let load stages c =
  let n = Circuit.num_qubits c in
  if n > qubit_mask then invalid_arg "Lowering: register too wide";
  let gates = Circuit.gates c in
  let rebase = List.mem Rebase stages and fold = List.mem Fold stages in
  let cap = ref 0 and su4 = ref [] in
  List.iter
    (fun g ->
      cap := !cap + (if rebase then max 1 (expansion g) else 1);
      if fold then cap := !cap + count_y g;
      match g with
      | Gate.Su4 _ -> su4 := g :: !su4
      | Gate.G1 _ | Gate.Cnot _ | Gate.Swap _ | Gate.Cliff2 _ | Gate.Rpp _ ->
        ())
    gates;
  let ops = Array.make !cap 0 and angles = Array.create_float !cap in
  let len = ref 0 and n_su4 = ref 0 in
  List.iter
    (fun g ->
      ops.(!len) <- encode g;
      (match g with
      | Gate.Su4 _ ->
        angles.(!len) <- Float.of_int !n_su4;
        incr n_su4
      | Gate.G1 _ | Gate.Cnot _ | Gate.Swap _ | Gate.Cliff2 _ | Gate.Rpp _ ->
        angles.(!len) <- angle_of g);
      incr len)
    gates;
  {
    n;
    ops;
    angles;
    su4 = Array.of_list (List.rev !su4);
    len = !len;
    live = !len;
    heads = [||];
    links = [||];
  }

let kill b i =
  b.ops.(i) <- b.ops.(i) lor dead;
  b.live <- b.live - 1

(* Move the live gates, in order, to the end of the buffer and return
   the position of the first.  A stage then reads from there while it
   writes from the front. *)
let to_tail b =
  let j = ref (Array.length b.ops) in
  for i = b.len - 1 downto 0 do
    let op = b.ops.(i) in
    if is_live op then begin
      decr j;
      b.ops.(!j) <- op;
      b.angles.(!j) <- b.angles.(i)
    end
  done;
  !j

(* --- peephole ---------------------------------------------------------------

   One forward pass emits each gate at the write position unless a
   rewrite absorbs it.  Each qubit's history is a chain through [links]
   from [heads]; scans walk it backwards and skip deleted gates. *)

let max_passes = 20

let[@inline] next b op i q =
  if qa op = q then b.links.(2 * i) else b.links.(2 * i + 1)

let[@inline] axis_on op q =
  if qa op = q then axis_a.(kind op) else axis_b.(kind op)

(* Write [op] with angle [t] at the write position and link it into its
   qubits' chains. *)
let[@inline] emit b op t =
  let i = b.len in
  b.ops.(i) <- op;
  b.angles.(i) <- t;
  let a = qa op and c = qb op in
  b.links.(2 * i) <- b.heads.(a);
  b.heads.(a) <- i;
  if c <> a then begin
    b.links.(2 * i + 1) <- b.heads.(c);
    b.heads.(c) <- i
  end;
  b.len <- i + 1;
  b.live <- b.live + 1

let rec last_live b q i =
  if i < 0 || is_live b.ops.(i) then i else last_live b q (next b b.ops.(i) i q)

(* First live gate on [q]'s chain that blocks a rotation about axis [p]:
   any 1Q gate (a potential merge partner), or a 2Q gate whose axis on
   [q] differs. *)
let rec scan_rotation b q p i =
  if i < 0 then i
  else
    let op = b.ops.(i) in
    if (not (is_live op)) || (kind op > k_phase && axis_on op q = p) then
      scan_rotation b q p (next b op i q)
    else i

(* First live gate on [q]'s chain that is [target] or does not commute
   with its axis [p] on [q]. *)
let rec scan_cnot b q p target i =
  if i < 0 then i
  else
    let op = b.ops.(i) in
    if (not (is_live op)) || (op <> target && axis_on op q = p) then
      scan_cnot b q p target (next b op i q)
    else i

let cancel_h b q =
  let i = last_live b q b.heads.(q) in
  i >= 0
  && kind b.ops.(i) = k_h
  && begin
       kill b i;
       true
     end

(* The rotation read at [r], about axis [p] on [q]: merge it into the
   nearest 1Q gate on [q] past commuting 2Q gates, the merged rotation
   taking the later position. *)
let merge_rotation b r q p =
  let i = scan_rotation b q p b.heads.(q) in
  i >= 0
  &&
  let k = kind b.ops.(i) in
  k <= k_rz && axis_a.(k) = p
  && begin
       let theta = rotation_angle (kind b.ops.(r)) b.angles.(r) in
       let merged = Angle.merge_norm theta (rotation_angle k b.angles.(i)) in
       kill b i;
       if not (is_zero_angle merged) then
         emit b (pack (rotation_kind p) q q) merged;
       true
     end

let cancel_cnot b a c =
  let target = pack k_cnot a c in
  let i = scan_cnot b a p_z target b.heads.(a) in
  i >= 0
  && b.ops.(i) = target
  && scan_cnot b c p_x target b.heads.(c) = i
  && begin
       kill b i;
       true
     end

(* The live gate heading both [a]'s and [c]'s chains, or -1. *)
let both_last b a c =
  let i = last_live b a b.heads.(a) in
  if i >= 0 && last_live b c b.heads.(c) = i then i else -1

(* SWAP·SWAP and C·C for a Clifford2Q generator C; the symmetric ones
   (SWAP, CXX, CYY, CZZ) also cancel with their operands exchanged. *)
let cancel_pair b k a c =
  let i = both_last b a c in
  i >= 0
  &&
  let op = b.ops.(i) in
  kind op = k
  && ((qa op = a && qb op = c) || (symmetric.(k) && qa op = c && qb op = a))
  && begin
       kill b i;
       true
     end

let merge_rpp b r op =
  let i = both_last b (qa op) (qb op) in
  i >= 0
  && b.ops.(i) = op
  && begin
       let merged = Angle.merge_norm b.angles.(r) b.angles.(i) in
       kill b i;
       if not (is_zero_angle merged) then emit b op merged;
       true
     end

(* Whether a rewrite absorbed the gate read at [r]. *)
let absorbed b r op =
  let k = kind op in
  if k = k_h then cancel_h b (qa op)
  else if k <= k_rz then
    is_zero_angle (rotation_angle k b.angles.(r))
    || merge_rotation b r (qa op) axis_a.(k)
  else if k = k_cnot then cancel_cnot b (qa op) (qb op)
  else if k = k_su4 then false
  else if k >= k_rpp then is_zero_angle b.angles.(r) || merge_rpp b r op
  else cancel_pair b k (qa op) (qb op)

(* The write position never passes the read position [r]: each gate
   read emits at most one. *)
let peephole_pass b =
  Array.fill b.heads 0 b.n (-1);
  let len = b.len in
  b.len <- 0;
  b.live <- 0;
  for r = 0 to len - 1 do
    let op = b.ops.(r) in
    if is_live op && not (absorbed b r op) then emit b op b.angles.(r)
  done

(* Every rewrite shortens the circuit, so a pass that keeps the length
   changed nothing: the length is the fixpoint test. *)
let peephole b =
  if Array.length b.links = 0 then begin
    b.heads <- Array.make b.n (-1);
    b.links <- Array.make (2 * Array.length b.ops) (-1)
  end;
  let rec go i =
    if i < max_passes then begin
      let before = b.live in
      peephole_pass b;
      if b.live <> before then go (i + 1)
    end
  in
  go 0

(* --- CNOT rebase --------------------------------------------------------- *)

let[@inline] put b w op t =
  b.ops.(w) <- op;
  b.angles.(w) <- t;
  w + 1

(* 1Q gates u with u·σ·u† = Z on [q], before ([pre]) and after ([post])
   the Z-basis gadget. *)
let pre b w p q =
  if p = p_x then put b w (pack k_h q q) 0.0
  else if p = p_y then put b (put b w (pack k_sdg q q) 0.0) (pack k_h q q) 0.0
  else w

let post b w p q =
  if p = p_x then put b w (pack k_h q q) 0.0
  else if p = p_y then put b (put b w (pack k_h q q) 0.0) (pack k_s q q) 0.0
  else w

(* Write the CNOT-basis expansion of gate [op] with angle [t] at [w];
   return the next free position.  The caller has read both already. *)
let rec expand b w op t =
  let k = kind op and a = qa op and c = qb op in
  if k <= k_cnot then put b w op t
  else if k = k_swap then
    let w = put b w (pack k_cnot a c) 0.0 in
    let w = put b w (pack k_cnot c a) 0.0 in
    put b w (pack k_cnot a c) 0.0
  else if k = k_su4 then
    match b.su4.(Float.to_int t) with
    | Gate.Su4 { parts; _ } -> List.fold_left (expand_gate b) w parts
    | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _ ->
      assert false
  else if k >= k_rpp then begin
    let p0 = (k - k_rpp) / 4 and p1 = (k - k_rpp) mod 4 in
    if p0 = p_i || p1 = p_i then invalid_arg "Rebase.to_z_basis: identity";
    let w = pre b (pre b w p0 a) p1 c in
    let w = put b w (pack k_cnot a c) 0.0 in
    let w = put b w (pack k_rz c c) t in
    let w = put b w (pack k_cnot a c) 0.0 in
    post b (post b w p1 c) p0 a
  end
  else begin
    let template = cliff_templates.(k - k_cliff2) in
    for j = 0 to Array.length template - 1 do
      let g = template.(j) in
      let x = if qa g = 0 then a else c and y = if qb g = 0 then a else c in
      b.ops.(w + j) <- pack (kind g) x y;
      b.angles.(w + j) <- 0.0
    done;
    w + Array.length template
  end

and expand_gate b w = function
  | Gate.Su4 { parts; _ } -> List.fold_left (expand_gate b) w parts
  | (Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _) as g ->
    expand b w (encode g) (angle_of g)

(* The write position never passes the read position: the gates still
   to read expand to at least one slot each within the capacity. *)
let rebase b =
  let cap = Array.length b.ops in
  let w = ref 0 in
  for r = to_tail b to cap - 1 do
    let op = b.ops.(r) in
    w :=
      if kind op <= k_cnot then put b !w op b.angles.(r)
      else expand b !w op b.angles.(r)
  done;
  b.len <- !w;
  b.live <- !w

(* --- phase folding ----------------------------------------------------------

   Every wire carries a parity: the ascending array of the variables it
   XORs, with an XOR hash of their mixes updated in O(1) per CNOT, SWAP
   and barrier.  A diagonal rotation adds its angle to the phase of its
   wire's (parity, negation) class. *)

let pi = 4.0 *. Float.atan 1.0

(* The angle a diagonal Clifford folds as (an Rz's is its own). *)
let quarter_angle =
  let a = Array.make (k_rz + 1) 0.0 in
  a.(k_z) <- pi;
  a.(k_s) <- 2.0 *. Float.atan 1.0 (* π/2 *);
  a.(k_sdg) <- -2.0 *. Float.atan 1.0;
  a.(k_t) <- Float.atan 1.0 (* π/4 *);
  a.(k_tdg) <- -.Float.atan 1.0;
  a

let[@inline] quarter k t = if k = k_rz then t else quarter_angle.(k)

let is_diagonal k =
  k = k_z || k = k_s || k = k_sdg || k = k_t || k = k_tdg || k = k_rz

(* splitmix64's finalizer, with constants that fit an OCaml int. *)
let mix v =
  let z = (v + 1) * 0x1e3779b97f4a7c15 in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

(* Per wire: its variables (an array never mutated, so classes share
   it), their XOR hash and the wire's X-negation. *)
type wires = {
  vars : int array array;
  hashes : int array;
  negated : bool array;
  mutable merged : int array; (* scratch for [xor_into] *)
  mutable fresh : int;
}

(* vars(c) <- vars(a) XOR vars(c), both ascending. *)
let xor_into s a c =
  let x = s.vars.(a) and y = s.vars.(c) in
  let lx = Array.length x and ly = Array.length y in
  if Array.length s.merged < lx + ly then
    s.merged <- Array.make (2 * (lx + ly)) 0;
  let out = s.merged in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < lx && !j < ly do
    let u = x.(!i) and v = y.(!j) in
    if u < v then begin
      out.(!k) <- u;
      incr i;
      incr k
    end
    else if v < u then begin
      out.(!k) <- v;
      incr j;
      incr k
    end
    else begin
      incr i;
      incr j
    end
  done;
  let tail = if !i < lx then x else y and from = if !i < lx then !i else !j in
  let len = !k + Array.length tail - from in
  let z = Array.make len 0 in
  for m = 0 to !k - 1 do
    z.(m) <- out.(m)
  done;
  for m = from to Array.length tail - 1 do
    z.(!k + m - from) <- tail.(m)
  done;
  s.vars.(c) <- z;
  s.hashes.(c) <- s.hashes.(c) lxor s.hashes.(a);
  s.negated.(c) <- s.negated.(c) <> s.negated.(a)

let swap_wires s a c =
  let v = s.vars.(a) and h = s.hashes.(a) and ng = s.negated.(a) in
  s.vars.(a) <- s.vars.(c);
  s.hashes.(a) <- s.hashes.(c);
  s.negated.(a) <- s.negated.(c);
  s.vars.(c) <- v;
  s.hashes.(c) <- h;
  s.negated.(c) <- ng

let barrier s q =
  s.vars.(q) <- [| s.fresh |];
  s.hashes.(q) <- mix s.fresh;
  s.negated.(q) <- false;
  s.fresh <- s.fresh + 1

(* Phase classes, keyed by the wire's (parity, negation).  A hit is
   confirmed on the variables themselves, so a hash collision costs a
   comparison, never a wrong merge. *)
module Class = struct
  type t = { hash : int; negated : bool; vars : int array }

  let equal x y =
    x.hash = y.hash && x.negated = y.negated
    && (x.vars == y.vars || x.vars = y.vars)

  let hash x = if x.negated then x.hash lxor 1 else x.hash
end

module Classes = Hashtbl.Make (Class)

(* Add [theta] to the phase of [q]'s class.  A new class places its
   phase at [w], on [q], and sums later angles in program order.
   Returns the next write position. *)
let add_phase b s classes w q theta =
  let key =
    { Class.hash = s.hashes.(q); negated = s.negated.(q); vars = s.vars.(q) }
  in
  match Classes.find_opt classes key with
  | Some i ->
    b.angles.(i) <- Angle.add b.angles.(i) theta;
    w
  | None ->
    Classes.add classes key w;
    put b w (pack k_phase q q) theta

(* The write position never passes the read position: only a [Y] writes
   two gates, and the capacity holds one slot per [Y]. *)
let fold b =
  let n = b.n in
  let s =
    {
      vars = Array.init n (fun q -> [| q |]);
      hashes = Array.init n mix;
      negated = Array.make n false;
      merged = [||];
      fresh = n;
    }
  in
  let classes = Classes.create 64 in
  let cap = Array.length b.ops in
  let w = ref 0 in
  for r = to_tail b to cap - 1 do
    let op = b.ops.(r) in
    let k = kind op and a = qa op in
    if is_diagonal k then
      w := add_phase b s classes !w a (quarter k b.angles.(r))
    else if k = k_y then begin
      (* Y = (global i)·X·Z: a π phase at the current parity, then a
         negation *)
      w := add_phase b s classes !w a pi;
      s.negated.(a) <- not s.negated.(a);
      w := put b !w (pack k_x a a) 0.0
    end
    else begin
      if k = k_x then s.negated.(a) <- not s.negated.(a)
      else if k = k_h || k = k_rx || k = k_ry then barrier s a
      else if k = k_cnot then xor_into s a (qb op)
      else if k = k_swap then swap_wires s a (qb op)
      else begin
        barrier s a;
        barrier s (qb op)
      end;
      w := put b !w op b.angles.(r)
    end
  done;
  b.len <- !w;
  b.live <- !w;
  (* Phases normalize last to first (the order the symbolic arena
     records them in); a known-zero phase is dropped, a slot never. *)
  for i = !w - 1 downto 0 do
    let op = b.ops.(i) in
    if kind op = k_phase then begin
      let theta = Angle.normalize b.angles.(i) in
      if is_zero_angle theta then kill b i
      else begin
        b.ops.(i) <- pack k_rz (qa op) (qa op);
        b.angles.(i) <- theta
      end
    end
  done

(* --- entry points -------------------------------------------------------- *)

let decode b op i =
  let k = kind op and a = qa op in
  if k < k_rx then Gate.G1 (constant_one_q.(k), a)
  else if k = k_rx then Gate.G1 (Gate.Rx b.angles.(i), a)
  else if k = k_ry then Gate.G1 (Gate.Ry b.angles.(i), a)
  else if k = k_rz then Gate.G1 (Gate.Rz b.angles.(i), a)
  else if k = k_cnot then Gate.Cnot (a, qb op)
  else if k = k_swap then Gate.Swap (a, qb op)
  else if k = k_su4 then b.su4.(Float.to_int b.angles.(i))
  else if k >= k_rpp then
    Gate.Rpp
      {
        p0 = paulis.((k - k_rpp) / 4);
        p1 = paulis.((k - k_rpp) mod 4);
        a;
        b = qb op;
        theta = b.angles.(i);
      }
  else
    Gate.Cliff2 { Clifford2q.kind = cliff_kinds.(k - k_cliff2); a; b = qb op }

let lowered stages c =
  let b = load stages c in
  List.iter
    (function Peephole -> peephole b | Rebase -> rebase b | Fold -> fold b)
    stages;
  b

let run stages c =
  let b = lowered stages c in
  let gates = ref [] in
  for i = b.len - 1 downto 0 do
    let op = b.ops.(i) in
    if is_live op then gates := decode b op i :: !gates
  done;
  Circuit.of_validated b.n !gates

let count cost stages c =
  let b = lowered stages c in
  let total = ref 0 in
  for i = 0 to b.len - 1 do
    let op = b.ops.(i) in
    if is_live op then total := !total + cost b op i
  done;
  !total

let count_2q = count (fun _ op _ -> if kind op >= k_cnot then 1 else 0)

let count_cnot =
  count (fun b op i ->
      let k = kind op in
      if k <= k_rz then 0
      else if k = k_cnot || (k >= k_cliff2 && k < k_rpp) then 1
      else if k >= k_rpp then 2
      else if k = k_swap then 3
      else Circuit.cnot_cost b.su4.(Float.to_int b.angles.(i)))
