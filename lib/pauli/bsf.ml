module Bitvec = Phoenix_util.Bitvec
module Arena = Phoenix_util.Arena

let bpw = Bitvec.bits_per_word

(* Column statistics: the pairwise terms of Eq. 6 collapse to closed forms
   over per-column counts,

     Σ_{i<j} |s_i ∨ s_j| = Σ_q #{(i,j) : i<j, q ∈ s_i ∪ s_j}
                         = Σ_q [C(R,2) − C(R−c_q,2)]
                         = (R−1)·Σ_q c_q − Σ_q C(c_q,2),

   (likewise for the x- and z-only unions with cx_q / cz_q), while
   w_tot = #{q : c_q > 0} and n_nl counts cached row weights > 1.  All
   counters are integers, so the incremental cost is bit-for-bit the
   value the O(R²·words) pairwise loop would compute. *)
type stats = {
  col_c : int array; (* per qubit: rows with x or z set *)
  col_cx : int array;
  col_cz : int array;
  mutable sum_c : int; (* Σ_q c_q *)
  mutable tri_c : int; (* Σ_q C(c_q, 2) *)
  mutable sum_cx : int;
  mutable tri_cx : int;
  mutable sum_cz : int;
  mutable tri_cz : int;
  mutable w_tot : int; (* #{q : c_q > 0} — Eq. 4 *)
  mutable n_nl : int; (* rows of weight > 1 *)
}

(* The tableau proper is one flat word arena: row [i]'s x words occupy
   [[i·stride, i·stride + wpr)] and its z words the following [wpr]
   words, so the row-major sweeps of the mutators and the delta engine
   walk one contiguous buffer with stride [2·wpr] and never allocate.
   Signs, cached weights and angles ride in parallel side arrays kept
   in lockstep by every structural change. *)
type t = {
  n : int;
  wpr : int; (* words per x (or z) half-row *)
  ar : Arena.t; (* stride = 2·wpr *)
  mutable neg : Bytes.t; (* '\001' = negative sign *)
  mutable wts : int array; (* cached |x ∨ z| per row *)
  mutable angles : float array;
  st : stats;
}

type row = { pauli : Pauli_string.t; neg : bool; angle : float }

let[@inline] tri c = c * (c - 1) / 2

let fresh_stats n =
  {
    col_c = Array.make n 0;
    col_cx = Array.make n 0;
    col_cz = Array.make n 0;
    sum_c = 0;
    tri_c = 0;
    sum_cx = 0;
    tri_cx = 0;
    sum_cz = 0;
    tri_cz = 0;
    w_tot = 0;
    n_nl = 0;
  }

let set_c st q v =
  let old = st.col_c.(q) in
  if v <> old then begin
    st.col_c.(q) <- v;
    st.sum_c <- st.sum_c - old + v;
    st.tri_c <- st.tri_c - tri old + tri v;
    if old = 0 then st.w_tot <- st.w_tot + 1
    else if v = 0 then st.w_tot <- st.w_tot - 1
  end

let set_cx st q v =
  let old = st.col_cx.(q) in
  if v <> old then begin
    st.col_cx.(q) <- v;
    st.sum_cx <- st.sum_cx - old + v;
    st.tri_cx <- st.tri_cx - tri old + tri v
  end

let set_cz st q v =
  let old = st.col_cz.(q) in
  if v <> old then begin
    st.col_cz.(q) <- v;
    st.sum_cz <- st.sum_cz - old + v;
    st.tri_cz <- st.tri_cz - tri old + tri v
  end

(* --- flat-layout primitives -------------------------------------------- *)

(* [Bitvec.popcount_word] and [Bitvec.ctz_word], kept here so the word
   loops of this module inline them: a call to another module's function
   is never inlined under [-opaque] (dune's dev profile), and every such
   call would be an indirect one. *)
let[@inline] popcount w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let[@inline] ctz w = popcount ((w land -w) - 1)

let[@inline] stride t = 2 * t.wpr
let num_qubits t = t.n
let num_rows t = Arena.rows t.ar
let[@inline] x_base t i = i * stride t
let[@inline] z_base t i = (i * stride t) + t.wpr

let[@inline] get_bit buf off q =
  (Array.unsafe_get buf (off + (q / bpw)) lsr (q mod bpw)) land 1 <> 0

let[@inline] is_neg (t : t) i = Bytes.unsafe_get t.neg i <> '\000'

let[@inline] set_neg (t : t) i b =
  Bytes.unsafe_set t.neg i (if b then '\001' else '\000')

(* Apply [f] to the absolute index of every set bit in the [nw]-word
   slice at [off] — the arena-slice analogue of [Bitvec.iter_set]. *)
let iter_slice_bits f buf off nw =
  for k = 0 to nw - 1 do
    let w = ref (Array.unsafe_get buf (off + k)) in
    let b = k * bpw in
    while !w <> 0 do
      f (b + ctz !w);
      w := !w land (!w - 1)
    done
  done

let slice_or_popcount buf o1 o2 nw =
  let acc = ref 0 in
  for k = 0 to nw - 1 do
    acc :=
      !acc
      + popcount
          (Array.unsafe_get buf (o1 + k) lor Array.unsafe_get buf (o2 + k))
  done;
  !acc

(* Account row [i] of the buffer (x at [xo], z at [zo], cached weight
   [w]) into (dir = 1) or out of (dir = -1) the statistics. *)
let account_slice st dir buf xo zo nw w =
  if w > 1 then st.n_nl <- st.n_nl + dir;
  iter_slice_bits (fun q -> set_cx st q (st.col_cx.(q) + dir)) buf xo nw;
  iter_slice_bits (fun q -> set_cz st q (st.col_cz.(q) + dir)) buf zo nw;
  for k = 0 to nw - 1 do
    let w = Array.unsafe_get buf (xo + k) lor Array.unsafe_get buf (zo + k) in
    let w = ref w in
    let b = k * bpw in
    while !w <> 0 do
      let q = b + ctz !w in
      set_c st q (st.col_c.(q) + dir);
      w := !w land (!w - 1)
    done
  done

let account t dir i =
  account_slice t.st dir (Arena.buffer t.ar) (x_base t i) (z_base t i) t.wpr
    t.wts.(i)

(* Grow the side arrays to at least [rows] slots (arena growth is
   handled by [Arena.push_n]). *)
let ensure_side t rows =
  let cap = Array.length t.wts in
  if rows > cap then begin
    let cap' = max rows (max 4 (2 * cap)) in
    let wts = Array.make cap' 0 in
    Array.blit t.wts 0 wts 0 cap;
    let angles = Array.make cap' 0.0 in
    Array.blit t.angles 0 angles 0 cap;
    let neg = Bytes.make cap' '\000' in
    Bytes.blit t.neg 0 neg 0 cap;
    t.wts <- wts;
    t.angles <- angles;
    t.neg <- neg
  end

let create n =
  if n <= 0 then invalid_arg "Bsf.create: need at least one qubit";
  let wpr = Bitvec.word_count n in
  {
    n;
    wpr;
    ar = Arena.create ~stride:(2 * wpr) ();
    neg = Bytes.create 0;
    wts = [||];
    angles = [||];
    st = fresh_stats n;
  }

let of_terms n terms =
  let t = create n in
  let rows = List.length terms in
  Arena.push_n t.ar rows;
  ensure_side t rows;
  let buf = Arena.buffer t.ar in
  List.iteri
    (fun i (p, angle) ->
      if Pauli_string.num_qubits p <> n then
        invalid_arg "Bsf.of_terms: qubit-count mismatch";
      let xo = x_base t i and zo = z_base t i in
      Pauli_string.blit_bits_to p ~x_dst:buf ~x_off:xo ~z_dst:buf ~z_off:zo;
      t.wts.(i) <- slice_or_popcount buf xo zo t.wpr;
      t.angles.(i) <- angle;
      set_neg t i false;
      account t 1 i)
    terms;
  t

let copy t =
  let rows = num_rows t in
  let st = t.st in
  {
    t with
    ar = Arena.copy t.ar;
    neg = Bytes.sub t.neg 0 rows;
    wts = Array.sub t.wts 0 rows;
    angles = Array.sub t.angles 0 rows;
    st =
      {
        st with
        col_c = Array.copy st.col_c;
        col_cx = Array.copy st.col_cx;
        col_cz = Array.copy st.col_cz;
      };
  }

let check_row t i =
  if i < 0 || i >= num_rows t then invalid_arg "Bsf: row index out of range"

let row_pauli t i =
  check_row t i;
  let buf = Arena.buffer t.ar in
  Pauli_string.of_bits_owned
    ~x:(Bitvec.of_words t.n buf (x_base t i))
    ~z:(Bitvec.of_words t.n buf (z_base t i))

let snapshot t i =
  { pauli = row_pauli t i; neg = is_neg t i; angle = t.angles.(i) }

let rows t = List.init (num_rows t) (snapshot t)

let row_weight t i =
  check_row t i;
  t.wts.(i)

let support t =
  let acc = Bitvec.create t.n in
  Array.iteri (fun q c -> if c > 0 then Bitvec.set acc q true) t.st.col_c;
  acc

let total_weight t = t.st.w_tot

let support_indices t =
  let acc = ref [] in
  for q = t.n - 1 downto 0 do
    if t.st.col_c.(q) > 0 then acc := q :: !acc
  done;
  !acc

let nonlocal_count t = t.st.n_nl

(* --- Cache auditing ------------------------------------------------------

   The column-statistics layer is redundant state: every counter is a
   function of the row bit words.  [audit] recomputes that function from
   scratch and reports every discrepancy, giving the static-analysis layer
   (and the [PHOENIX_BSF_AUDIT] debug mode) a simulation-free oracle for
   the incremental bookkeeping of the mutators below. *)

let audit t =
  let issues = ref [] in
  let add fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let buf = Arena.buffer t.ar in
  let fresh = fresh_stats t.n in
  for i = 0 to num_rows t - 1 do
    let xo = x_base t i and zo = z_base t i in
    let w = slice_or_popcount buf xo zo t.wpr in
    if t.wts.(i) <> w then
      add "row %d: cached weight %d, bit vectors say %d" i t.wts.(i) w;
    let angle = t.angles.(i) in
    if not (Float.is_finite angle) && not (Angle.is_slot angle) then
      add "row %d: non-finite angle %h" i angle;
    account_slice fresh 1 buf xo zo t.wpr w
  done;
  let st = t.st in
  for q = 0 to t.n - 1 do
    if st.col_c.(q) <> fresh.col_c.(q) then
      add "column %d: cached support count %d, recomputed %d" q st.col_c.(q)
        fresh.col_c.(q);
    if st.col_cx.(q) <> fresh.col_cx.(q) then
      add "column %d: cached x count %d, recomputed %d" q st.col_cx.(q)
        fresh.col_cx.(q);
    if st.col_cz.(q) <> fresh.col_cz.(q) then
      add "column %d: cached z count %d, recomputed %d" q st.col_cz.(q)
        fresh.col_cz.(q)
  done;
  let scalar name cached recomputed =
    if cached <> recomputed then
      add "%s: cached %d, recomputed %d" name cached recomputed
  in
  scalar "sum_c" st.sum_c fresh.sum_c;
  scalar "tri_c" st.tri_c fresh.tri_c;
  scalar "sum_cx" st.sum_cx fresh.sum_cx;
  scalar "tri_cx" st.tri_cx fresh.tri_cx;
  scalar "sum_cz" st.sum_cz fresh.sum_cz;
  scalar "tri_cz" st.tri_cz fresh.tri_cz;
  scalar "w_tot" st.w_tot fresh.w_tot;
  scalar "n_nl (nonlocal rows)" st.n_nl fresh.n_nl;
  List.rev !issues

(* PHOENIX_BSF_AUDIT is read on the first mutation, not at module
   initialisation, so a test can set it at run time.  The cached read
   lives in an [Atomic] (0 unread, 1 off, 2 on) rather than a [lazy]:
   every domain of the first parallel simplify gets here at once, and a
   racing [Lazy.force] raises [CamlinternalLazy.Undefined].  Racing
   first reads store the same value. *)
let debug_audit_state = Atomic.make 0

let debug_audit_enabled () =
  match Atomic.get debug_audit_state with
  | 1 -> false
  | 2 -> true
  | _ ->
    let on =
      match Sys.getenv_opt "PHOENIX_BSF_AUDIT" with
      | None | Some "" | Some "0" -> false
      | Some _ -> true
    in
    Atomic.set debug_audit_state (if on then 2 else 1);
    on

let debug_audit t =
  if debug_audit_enabled () then
    match audit t with
    | [] -> ()
    | issues ->
      invalid_arg
        ("Bsf cache audit failed after mutation: " ^ String.concat "; " issues)

(* Sign conventions (standard stabilizer-tableau update rules, verified
   against dense conjugation in the test suite):
   - H:  X ↔ Z, Y ↦ -Y.
   - S:  X ↦ Y, Y ↦ -X, Z ↦ Z.
   - S†: X ↦ -Y ... i.e. the sign flips on x ∧ ¬z before z ^= x.
   - CNOT a→b: x_b ^= x_a, z_a ^= z_b, sign flips on x_a ∧ z_b ∧ (x_b = z_a)
     evaluated on the pre-update bits.

   Every mutator is one row-major sweep over the arena: per row it
   touches the one or two words holding the operand columns, updating
   the column deltas as it goes — cache-linear and allocation-free. *)

let apply_h t q =
  if q < 0 || q >= t.n then invalid_arg "Bsf.apply_h: qubit out of range";
  let buf = Arena.buffer t.ar in
  let rows = num_rows t in
  let wq = q / bpw and m = 1 lsl (q mod bpw) in
  let s = stride t in
  for i = 0 to rows - 1 do
    let xk = (i * s) + wq in
    let zk = xk + t.wpr in
    let xw = Array.unsafe_get buf xk and zw = Array.unsafe_get buf zk in
    let xb = xw land m and zb = zw land m in
    if xb <> 0 && zb <> 0 then set_neg t i (not (is_neg t i));
    if xb <> zb then begin
      Array.unsafe_set buf xk (xw lxor m);
      Array.unsafe_set buf zk (zw lxor m)
    end
  done;
  (* columns swap roles at q; support, weights and n_nl are untouched *)
  let st = t.st in
  let cx = st.col_cx.(q) and cz = st.col_cz.(q) in
  set_cx st q cz;
  set_cz st q cx;
  debug_audit t

(* S and S† share the bit action z_q ^= x_q: only cz_q changes, by the
   balance of X rows gaining z against Y rows losing it. *)
let apply_s_like ~sign_on_z t q =
  if q < 0 || q >= t.n then invalid_arg "Bsf.apply_s: qubit out of range";
  let buf = Arena.buffer t.ar in
  let rows = num_rows t in
  let wq = q / bpw and m = 1 lsl (q mod bpw) in
  let s = stride t in
  let st = t.st in
  let dcz = ref 0 in
  for i = 0 to rows - 1 do
    let xk = (i * s) + wq in
    let xw = Array.unsafe_get buf xk in
    if xw land m <> 0 then begin
      let zk = xk + t.wpr in
      let zw = Array.unsafe_get buf zk in
      let zq = zw land m <> 0 in
      if zq = sign_on_z then set_neg t i (not (is_neg t i));
      Array.unsafe_set buf zk (zw lxor m);
      dcz := !dcz + (if zq then -1 else 1)
    end
  done;
  set_cz st q (st.col_cz.(q) + !dcz);
  debug_audit t

let apply_s t q = apply_s_like ~sign_on_z:true t q
let apply_sdg t q = apply_s_like ~sign_on_z:false t q

let apply_cnot t a b =
  if a = b then invalid_arg "Bsf.apply_cnot: qubits must differ";
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg "Bsf.apply_cnot: qubit out of range";
  let buf = Arena.buffer t.ar in
  let rows = num_rows t in
  let wa = a / bpw and ma = 1 lsl (a mod bpw) in
  let wb = b / bpw and mb = 1 lsl (b mod bpw) in
  let s = stride t in
  let st = t.st in
  let dcxb = ref 0 and dcza = ref 0 and dca = ref 0 and dcb = ref 0 in
  for i = 0 to rows - 1 do
    let base = i * s in
    let xak = base + wa
    and zak = base + t.wpr + wa
    and xbk = base + wb
    and zbk = base + t.wpr + wb in
    let xa = Array.unsafe_get buf xak land ma <> 0
    and za = Array.unsafe_get buf zak land ma <> 0
    and xb = Array.unsafe_get buf xbk land mb <> 0
    and zb = Array.unsafe_get buf zbk land mb <> 0 in
    if xa && zb && xb = za then set_neg t i (not (is_neg t i));
    let xb' = xb <> xa and za' = za <> zb in
    if xb' <> xb then begin
      Array.unsafe_set buf xbk (Array.unsafe_get buf xbk lxor mb);
      dcxb := !dcxb + (if xb' then 1 else -1)
    end;
    if za' <> za then begin
      Array.unsafe_set buf zak (Array.unsafe_get buf zak lxor ma);
      dcza := !dcza + (if za' then 1 else -1)
    end;
    let sa = xa || za and sa' = xa || za' in
    let sb = xb || zb and sb' = xb' || zb in
    let dw =
      (if sa' then 1 else 0) - (if sa then 1 else 0)
      + (if sb' then 1 else 0)
      - (if sb then 1 else 0)
    in
    if sa' <> sa then dca := !dca + (if sa' then 1 else -1);
    if sb' <> sb then dcb := !dcb + (if sb' then 1 else -1);
    if dw <> 0 then begin
      let w = Array.unsafe_get t.wts i in
      let w' = w + dw in
      Array.unsafe_set t.wts i w';
      if w > 1 && w' <= 1 then st.n_nl <- st.n_nl - 1
      else if w <= 1 && w' > 1 then st.n_nl <- st.n_nl + 1
    end
  done;
  set_cx st b (st.col_cx.(b) + !dcxb);
  set_cz st a (st.col_cz.(a) + !dcza);
  set_c st a (st.col_c.(a) + !dca);
  set_c st b (st.col_c.(b) + !dcb);
  debug_audit t

let apply_basis_gate t = function
  | Clifford2q.H q -> apply_h t q
  | Clifford2q.S q -> apply_s t q
  | Clifford2q.Sdg q -> apply_sdg t q
  | Clifford2q.Cnot (a, b) -> apply_cnot t a b

(* Conjugation by a product C = g_k ⋯ g_1 (time order g_1 first) nests as
   conj(C, P) = conj(g_k, … conj(g_1, P) …), so primitives are applied in
   the decomposition's time order. *)
let apply_clifford2q t gate =
  List.iter (apply_basis_gate t) (Clifford2q.decompose gate)

let rows_commute t i j =
  let buf = Arena.buffer t.ar in
  let xi = x_base t i
  and zi = z_base t i
  and xj = x_base t j
  and zj = z_base t j in
  let acc = ref 0 in
  for k = 0 to t.wpr - 1 do
    acc :=
      !acc
      + popcount
          (Array.unsafe_get buf (xi + k) land Array.unsafe_get buf (zj + k))
      + popcount
          (Array.unsafe_get buf (zi + k) land Array.unsafe_get buf (xj + k))
  done;
  !acc mod 2 = 0

let pop_local_rows ?(commuting_only = false) t =
  let n_rows = num_rows t in
  let local = Array.init n_rows (fun i -> t.wts.(i) <= 1) in
  if commuting_only then begin
    (* A local row may only leave its program position when it commutes
       with every row that stays behind — including locals that
       themselves fail the test, hence the fixpoint iteration.  Peeled
       locals keep their relative order, so they need not commute with
       each other. *)
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n_rows - 1 do
        if local.(i) then
          for j = 0 to n_rows - 1 do
            if (not local.(j)) && not (rows_commute t i j) then begin
              local.(i) <- false;
              changed := true
            end
          done
      done
    done
  end;
  let peeled = ref [] in
  for i = n_rows - 1 downto 0 do
    if local.(i) then begin
      (* peeled rows have weight ≤ 1: at most one column to release *)
      account t (-1) i;
      peeled := snapshot t i :: !peeled
    end
  done;
  ignore
    (Arena.compact t.ar
       ~keep:(fun i -> not local.(i))
       (fun old_i new_i ->
         if old_i <> new_i then begin
           t.wts.(new_i) <- t.wts.(old_i);
           t.angles.(new_i) <- t.angles.(old_i);
           Bytes.unsafe_set t.neg new_i (Bytes.unsafe_get t.neg old_i)
         end));
  debug_audit t;
  !peeled

(* The Eq. 6 combination, shared verbatim by the incremental cost, the
   delta engine and the pairwise reference so all three agree to the last
   ulp whenever their integer counters agree. *)
let[@inline] cost_of_counters ~rows ~w_tot ~n_nl ~sum_c ~tri_c ~sum_cx ~tri_cx ~sum_cz
    ~tri_cz =
  let pair_sup = ((rows - 1) * sum_c) - tri_c in
  let pair_x = ((rows - 1) * sum_cx) - tri_cx in
  let pair_z = ((rows - 1) * sum_cz) - tri_cz in
  (float_of_int w_tot *. float_of_int n_nl *. float_of_int n_nl)
  +. float_of_int pair_sup
  +. (0.5 *. float_of_int (pair_x + pair_z))

let cost t =
  let st = t.st in
  cost_of_counters ~rows:(num_rows t) ~w_tot:st.w_tot ~n_nl:st.n_nl
    ~sum_c:st.sum_c ~tri_c:st.tri_c ~sum_cx:st.sum_cx ~tri_cx:st.tri_cx
    ~sum_cz:st.sum_cz ~tri_cz:st.tri_cz

(* Independent O(R²·words) evaluation of Eq. 6 straight from the bits,
   bypassing the incremental counters; the property suite pins [cost]
   against this. *)
let cost_reference t =
  let n_rows = num_rows t in
  let buf = Arena.buffer t.ar in
  let nw = t.wpr in
  let sup_acc = Array.make nw 0 in
  let n_nl = ref 0 in
  for i = 0 to n_rows - 1 do
    let xo = x_base t i and zo = z_base t i in
    for k = 0 to nw - 1 do
      sup_acc.(k) <- sup_acc.(k) lor buf.(xo + k) lor buf.(zo + k)
    done;
    if slice_or_popcount buf xo zo nw > 1 then incr n_nl
  done;
  let w_tot =
    float_of_int
      (Array.fold_left (fun acc w -> acc + Bitvec.popcount_word w) 0 sup_acc)
  in
  let n_nl = float_of_int !n_nl in
  let pair_sup = ref 0 and pair_x = ref 0 and pair_z = ref 0 in
  for i = 0 to n_rows - 1 do
    let xi = x_base t i and zi = z_base t i in
    for j = i + 1 to n_rows - 1 do
      let xj = x_base t j and zj = z_base t j in
      for k = 0 to nw - 1 do
        let xiw = buf.(xi + k)
        and ziw = buf.(zi + k)
        and xjw = buf.(xj + k)
        and zjw = buf.(zj + k) in
        pair_sup :=
          !pair_sup + Bitvec.popcount_word (xiw lor ziw lor xjw lor zjw);
        pair_x := !pair_x + Bitvec.popcount_word (xiw lor xjw);
        pair_z := !pair_z + Bitvec.popcount_word (ziw lor zjw)
      done
    done
  done;
  (w_tot *. n_nl *. n_nl)
  +. float_of_int !pair_sup
  +. (0.5 *. float_of_int (!pair_x + !pair_z))

(* --- The greedy pair scan ---------------------------------------------

   A candidate 2Q Clifford on (a,b) only rewrites columns a and b, so its
   effect on the cost is a function of those two columns and the global
   counters.  [Delta.best] transposes every support column into
   row-indexed words once per epoch, then scores the nine generators of
   each qubit pair together: the XOR images of the pair's four columns
   are built and counted once, and each generator costs three popcounts
   per row word — no tableau copy, no conjugation, no pair loop, and no
   allocation once the workspace has grown.

   The scan stays in this module, with the popcount above inlined into
   it (see [popcount]). *)
module Delta = struct
  (* Conjugation by a generator is GF(2)-linear on the four operand
     columns (signs do not affect the cost), so each generator reduces
     to four 4-bit masks over basis bits 1=xa, 2=za, 4=xb, 8=zb: new
     column = XOR of the old columns its mask selects, i.e. the XOR
     image of that mask.  The masks are derived at module init by
     pushing symbolic basis masks through [Clifford2q.decompose] — the
     exact instruction sequence [apply_clifford2q] executes — so they
     cannot drift from the tableau semantics.

     The nine generators of a pair are (kind index, kind, swapped): the
     six kinds on (a,b) plus the three asymmetric ones on (b,a), in
     [Clifford2q.all_kinds] order, whose index the tie-break rank
     uses. *)
  let gens =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ki kind ->
              if Clifford2q.is_symmetric kind then [ ki, kind, false ]
              else [ ki, kind, false; ki, kind, true ])
            Clifford2q.all_kinds))

  let num_gens = Array.length gens

  (* gen_masks.(4·g + c), c = 0..3: the masks of new xa, za, xb, zb *)
  let gen_masks =
    let masks (_, kind, swapped) =
      let xa = ref 1 and za = ref 2 and xb = ref 4 and zb = ref 8 in
      (* qubit 0 stands for column a, qubit 1 for column b *)
      let col_x q = if q = 0 then xa else xb in
      let col_z q = if q = 0 then za else zb in
      let gate =
        if swapped then Clifford2q.make kind 1 0 else Clifford2q.make kind 0 1
      in
      List.iter
        (function
          | Clifford2q.H q ->
            let x = col_x q and z = col_z q in
            let tmp = !x in
            x := !z;
            z := tmp
          | Clifford2q.S q | Clifford2q.Sdg q ->
            let x = col_x q and z = col_z q in
            z := !z lxor !x
          | Clifford2q.Cnot (c, t) ->
            (col_x t) := !(col_x t) lxor !(col_x c);
            (col_z c) := !(col_z c) lxor !(col_z t))
        (Clifford2q.decompose gate);
      [| !xa; !za; !xb; !zb |]
    in
    Array.concat (Array.to_list (Array.map masks gens))

  (* The images a generator uses that are not one of the four original
     columns: these are the only ones whose counts the scan computes. *)
  let counted_images =
    Array.of_list
      (List.sort_uniq compare
         (List.filter
            (fun m -> m land (m - 1) <> 0)
            (Array.to_list gen_masks)))

  type ws = {
    mutable sup : int array; (* support qubits, ascending; [0, k) live *)
    (* column of support position p, as row bits: words [p·nw, (p+1)·nw) *)
    mutable colx : int array;
    mutable colz : int array;
    (* rows of cached weight 1 / 2: words [(w-1)·nw, w·nw) *)
    mutable wmask : int array;
    (* per pair: XOR image of mask m at [m·nw + word] *)
    mutable img : int array;
    (* per pair: the rows whose local/nonlocal status a generator can
       change (see [best]) *)
    mutable m0 : int array;
    cnt : int array; (* per pair: set bits of image m, all words *)
  }

  let create () =
    {
      sup = [||];
      colx = [||];
      colz = [||];
      wmask = [||];
      img = [||];
      m0 = [||];
      cnt = Array.make 16 0;
    }

  let grow arr len = if Array.length arr < len then Array.make len 0 else arr

  let[@inline] nz c = if c > 0 then 1 else 0

  (* One epoch's key: the support and its columns as row words, indexed
     by support position so a tableau over a wide register costs its
     support. *)
  let load ws t ~k ~nw =
    let rows = num_rows t in
    let buf = Arena.buffer t.ar in
    let s = stride t and wpr = t.wpr in
    ws.sup <- grow ws.sup k;
    ws.colx <- grow ws.colx (k * nw);
    ws.colz <- grow ws.colz (k * nw);
    ws.wmask <- grow ws.wmask (2 * nw);
    ws.img <- grow ws.img (16 * nw);
    ws.m0 <- grow ws.m0 nw;
    let sup = ws.sup in
    let p = ref 0 in
    for w = 0 to wpr - 1 do
      let acc = ref 0 in
      for i = 0 to rows - 1 do
        let base = (i * s) + w in
        acc :=
          !acc lor Array.unsafe_get buf base lor Array.unsafe_get buf (base + wpr)
      done;
      while !acc <> 0 do
        sup.(!p) <- (w * bpw) + ctz !acc;
        incr p;
        acc := !acc land (!acc - 1)
      done
    done;
    if !p <> k then invalid_arg "Bsf.Delta.best: support out of sync with w_tot";
    for p = 0 to k - 1 do
      let q = Array.unsafe_get sup p in
      let wq = q / bpw and sh = q mod bpw in
      for wi = 0 to nw - 1 do
        let xw = ref 0 and zw = ref 0 in
        for i = wi * bpw to min rows ((wi + 1) * bpw) - 1 do
          let base = (i * s) + wq in
          let bit = i - (wi * bpw) in
          xw := !xw lor (((Array.unsafe_get buf base lsr sh) land 1) lsl bit);
          zw :=
            !zw lor (((Array.unsafe_get buf (base + wpr) lsr sh) land 1) lsl bit)
        done;
        Array.unsafe_set ws.colx ((p * nw) + wi) !xw;
        Array.unsafe_set ws.colz ((p * nw) + wi) !zw
      done
    done

  (* The rows of cached weight 1 and 2 as two row masks; only a scan
     reads them. *)
  let load_weights ws t ~nw =
    Array.fill ws.wmask 0 (2 * nw) 0;
    for i = 0 to num_rows t - 1 do
      let w = Array.unsafe_get t.wts i in
      if w = 1 || w = 2 then begin
        let slot = ((w - 1) * nw) + (i / bpw) in
        Array.unsafe_set ws.wmask slot
          (Array.unsafe_get ws.wmask slot lor (1 lsl (i mod bpw)))
      end
    done

  (* The search-state memo.  A scan reads k, the row count, the support
     columns, the cached row weights and the counters; columns outside
     the support are zero, so the weights and counters are functions of
     the support columns, and the tie-break rank is defined on support
     positions.  A result kept as (generator, support positions, cost) is
     therefore exact for every tableau with an equal key, whatever its
     register, signs or angles.  The row count stays in the key: weight-0
     rows set no column bit but change R in Eq. 6.

     A lookup hashes and compares the workspace's words in place, so a
     hit allocates nothing; only an insert copies them. *)
  type entry = {
    hash : int;
    k : int;
    rows : int;
    cols : int array; (* colx words, then colz words: k·nw each *)
    g : int;
    pi : int;
    pj : int;
    cost : float;
  }

  type memo = {
    lock : Mutex.t;
    mutable buckets : entry list array; (* length a power of two *)
    mutable entries : int;
    mutable calls : int;
    mutable scans : int;
  }

  let create_memo () =
    {
      lock = Mutex.create ();
      buckets = Array.make 64 [];
      entries = 0;
      calls = 0;
      scans = 0;
    }

  let memo_counts m =
    Mutex.lock m.lock;
    let counts = (m.calls, m.scans) in
    Mutex.unlock m.lock;
    counts

  (* "Not found", returned in place of an option so a lookup allocates
     nothing. *)
  let no_entry =
    { hash = 0; k = 0; rows = 0; cols = [||]; g = -1; pi = 0; pj = 0; cost = nan }

  let[@inline] mix h w =
    let h = (h lxor w) * 0x100000001b3 in
    h lxor (h lsr 29)

  let hash_key ws ~k ~rows ~nw =
    let h = ref (mix (mix 0 k) rows) in
    for i = 0 to (k * nw) - 1 do
      h := mix (mix !h (Array.unsafe_get ws.colx i)) (Array.unsafe_get ws.colz i)
    done;
    !h

  let same_key ws e ~hash ~k ~rows ~nw =
    e.hash = hash && e.k = k && e.rows = rows
    &&
    let len = k * nw in
    let i = ref 0 in
    while
      !i < len
      && Array.unsafe_get e.cols !i = Array.unsafe_get ws.colx !i
      && Array.unsafe_get e.cols (len + !i) = Array.unsafe_get ws.colz !i
    do
      incr i
    done;
    !i = len

  let rec find ws ~hash ~k ~rows ~nw = function
    | [] -> no_entry
    | e :: rest ->
      if same_key ws e ~hash ~k ~rows ~nw then e
      else find ws ~hash ~k ~rows ~nw rest

  let[@inline] slot buckets hash = hash land (Array.length buckets - 1)

  let lookup m ws ~hash ~k ~rows ~nw =
    Mutex.lock m.lock;
    m.calls <- m.calls + 1;
    let e = find ws ~hash ~k ~rows ~nw m.buckets.(slot m.buckets hash) in
    Mutex.unlock m.lock;
    e

  (* Another domain that missed the same key may have stored it since
     the lookup; the results are equal, so the first entry stays.  The
     table doubles past two entries per bucket. *)
  let insert m ws ~hash ~k ~rows ~nw ~g ~pi ~pj ~cost =
    let len = k * nw in
    let cols = Array.make (2 * len) 0 in
    Array.blit ws.colx 0 cols 0 len;
    Array.blit ws.colz 0 cols len len;
    let e = { hash; k; rows; cols; g; pi; pj; cost } in
    Mutex.lock m.lock;
    m.scans <- m.scans + 1;
    let i = slot m.buckets hash in
    if find ws ~hash ~k ~rows ~nw m.buckets.(i) == no_entry then begin
      m.buckets.(i) <- e :: m.buckets.(i);
      m.entries <- m.entries + 1;
      if m.entries > 2 * Array.length m.buckets then begin
        let grown = Array.make (2 * Array.length m.buckets) [] in
        Array.iter
          (List.iter (fun e ->
               let j = slot grown e.hash in
               grown.(j) <- e :: grown.(j)))
          m.buckets;
        m.buckets <- grown
      end
    end;
    Mutex.unlock m.lock

  let result sup g pi pj cost =
    let _, kind, swapped = gens.(g) in
    let a = sup.(pi) and b = sup.(pj) in
    let gate =
      if swapped then Clifford2q.make kind b a else Clifford2q.make kind a b
    in
    Some (gate, cost)

  (* A generator maps a row's (a,b) part (xa, za, xb, zb) linearly and
     invertibly, so a zero part stays zero and a non-zero one non-zero:
     a row with a qubit outside {a,b} keeps its local/nonlocal status.
     Only the rows [m0] whose support lies within {a,b} and is not empty
     — weight-1 rows on a or b, weight-2 rows on exactly {a,b} — can
     change, and such a row is nonlocal iff both columns are set.

     The rank of a candidate is its position in the kind-major
     enumeration of the historical copy-and-apply search: (kind, first
     operand, second operand), operands by support position.  One
     [Budget.checkpoint] per first operand keeps the probe off the
     candidate loop while bounding the time to notice an expired
     budget; an interrupted scan stores nothing. *)
  let best ?memo ws t =
    let k = t.st.w_tot in
    if k < 2 then None
    else begin
      let rows = num_rows t in
      let nw = (rows + bpw - 1) / bpw in
      load ws t ~k ~nw;
      let hash =
        match memo with None -> 0 | Some _ -> hash_key ws ~k ~rows ~nw
      in
      let hit =
        match memo with
        | None -> no_entry
        | Some m -> lookup m ws ~hash ~k ~rows ~nw
      in
      if hit != no_entry then result ws.sup hit.g hit.pi hit.pj hit.cost
      else begin
        load_weights ws t ~nw;
        let st = t.st in
        let sup = ws.sup and colx = ws.colx and colz = ws.colz in
        let wmask = ws.wmask and img = ws.img and cnt = ws.cnt in
        let m0s = ws.m0 in
        let best_cost = ref infinity and best_rank = ref max_int in
        let best_g = ref (-1) and best_pi = ref 0 and best_pj = ref 0 in
        for pi = 0 to k - 1 do
          Phoenix_util.Budget.checkpoint ();
          let a = Array.unsafe_get sup pi in
          for pj = pi + 1 to k - 1 do
            let b = Array.unsafe_get sup pj in
            (* Images, their counts and the row classes, once per pair. *)
            let nl_before = ref 0 in
            for j = 0 to Array.length counted_images - 1 do
              Array.unsafe_set cnt (Array.unsafe_get counted_images j) 0
            done;
            for wi = 0 to nw - 1 do
              let xa = Array.unsafe_get colx ((pi * nw) + wi)
              and za = Array.unsafe_get colz ((pi * nw) + wi)
              and xb = Array.unsafe_get colx ((pj * nw) + wi)
              and zb = Array.unsafe_get colz ((pj * nw) + wi) in
              let sa = xa lor za and sb = xb lor zb in
              let both = sa land sb in
              let m0 =
                (Array.unsafe_get wmask wi land (sa lxor sb))
                lor (Array.unsafe_get wmask (nw + wi) land both)
              in
              Array.unsafe_set m0s wi m0;
              nl_before := !nl_before + popcount (m0 land both);
              Array.unsafe_set img (nw + wi) xa;
              Array.unsafe_set img ((2 * nw) + wi) za;
              Array.unsafe_set img ((4 * nw) + wi) xb;
              Array.unsafe_set img ((8 * nw) + wi) zb;
              for m = 3 to 15 do
                let low = m land -m in
                if m <> low then
                  Array.unsafe_set img ((m * nw) + wi)
                    (Array.unsafe_get img (((m - low) * nw) + wi)
                    lxor Array.unsafe_get img ((low * nw) + wi))
              done;
              for j = 0 to Array.length counted_images - 1 do
                let m = Array.unsafe_get counted_images j in
                Array.unsafe_set cnt m
                  (Array.unsafe_get cnt m
                  + popcount (Array.unsafe_get img ((m * nw) + wi)))
              done
            done;
            let ca = st.col_c.(a) and cb = st.col_c.(b) in
            Array.unsafe_set cnt 1 st.col_cx.(a);
            Array.unsafe_set cnt 2 st.col_cz.(a);
            Array.unsafe_set cnt 4 st.col_cx.(b);
            Array.unsafe_set cnt 8 st.col_cz.(b);
            (* the counters with columns a and b taken out *)
            let w_tot0 = st.w_tot - nz ca - nz cb
            and n_nl0 = st.n_nl - !nl_before
            and sum_c0 = st.sum_c - ca - cb
            and tri_c0 = st.tri_c - tri ca - tri cb
            and sum_cx0 = st.sum_cx - cnt.(1) - cnt.(4)
            and tri_cx0 = st.tri_cx - tri cnt.(1) - tri cnt.(4)
            and sum_cz0 = st.sum_cz - cnt.(2) - cnt.(8)
            and tri_cz0 = st.tri_cz - tri cnt.(2) - tri cnt.(8) in
            for g = 0 to num_gens - 1 do
              let mxa = Array.unsafe_get gen_masks (4 * g)
              and mza = Array.unsafe_get gen_masks ((4 * g) + 1)
              and mxb = Array.unsafe_get gen_masks ((4 * g) + 2)
              and mzb = Array.unsafe_get gen_masks ((4 * g) + 3) in
              let ca' = ref 0 and cb' = ref 0 and nl = ref 0 in
              for wi = 0 to nw - 1 do
                let sa =
                  Array.unsafe_get img ((mxa * nw) + wi)
                  lor Array.unsafe_get img ((mza * nw) + wi)
                and sb =
                  Array.unsafe_get img ((mxb * nw) + wi)
                  lor Array.unsafe_get img ((mzb * nw) + wi)
                in
                ca' := !ca' + popcount sa;
                cb' := !cb' + popcount sb;
                nl := !nl + popcount (Array.unsafe_get m0s wi land sa land sb)
              done;
              let ca' = !ca' and cb' = !cb' in
              let cxa = Array.unsafe_get cnt mxa
              and cza = Array.unsafe_get cnt mza
              and cxb = Array.unsafe_get cnt mxb
              and czb = Array.unsafe_get cnt mzb in
              let cost =
                cost_of_counters ~rows ~w_tot:(w_tot0 + nz ca' + nz cb')
                  ~n_nl:(n_nl0 + !nl) ~sum_c:(sum_c0 + ca' + cb')
                  ~tri_c:(tri_c0 + tri ca' + tri cb')
                  ~sum_cx:(sum_cx0 + cxa + cxb)
                  ~tri_cx:(tri_cx0 + tri cxa + tri cxb)
                  ~sum_cz:(sum_cz0 + cza + czb)
                  ~tri_cz:(tri_cz0 + tri cza + tri czb)
              in
              let rank =
                let ki, _, swapped = Array.unsafe_get gens g in
                if swapped then (((ki * k) + pj) * k) + pi
                else (((ki * k) + pi) * k) + pj
              in
              if cost < !best_cost || (cost = !best_cost && rank < !best_rank)
              then begin
                best_cost := cost;
                best_rank := rank;
                best_g := g;
                best_pi := pi;
                best_pj := pj
              end
            done
          done
        done;
        let r = result sup !best_g !best_pi !best_pj !best_cost in
        (match memo, r with
        | Some m, Some (_, cost) ->
          insert m ws ~hash ~k ~rows ~nw ~g:!best_g ~pi:!best_pi ~pj:!best_pj
            ~cost
        | _ -> ());
        r
      end
    end
end

let to_terms t =
  List.init (num_rows t) (fun i ->
      let angle = t.angles.(i) in
      let angle = if is_neg t i then Angle.neg angle else angle in
      row_pauli t i, angle)

(* Canonical content addressing.  Rows are serialized projected onto the
   tableau's support columns (ascending), so two tableaux that differ only
   by which absolute qubits the group touches — or by trailing idle
   qubits — serialize identically.  [canonical_form] keeps program order
   (synthesis is order-sensitive); [canonical_digest] sorts the row
   serializations first, so it is additionally invariant under gadget
   reordering within the group. *)

let canonical_row_strings t =
  let support = Array.of_list (support_indices t) in
  let buf = Arena.buffer t.ar in
  (* Slot angles serialize as their first-use rank within this tableau (plus
     the occurrence's sign), not their process-local arena id: two slotted
     tableaux with the same structure then share a canonical form across
     parameter vectors, sessions, and processes.  The ['S'] prefix cannot
     collide with the lowercase-hex IEEE bits of const angles. *)
  let local = Hashtbl.create 8 in
  for i = 0 to num_rows t - 1 do
    match Angle.view t.angles.(i) with
    | Angle.Const _ -> ()
    | Angle.Slot { id; _ } ->
      if not (Hashtbl.mem local id) then
        Hashtbl.add local id (Hashtbl.length local)
  done;
  Array.init (num_rows t) (fun i ->
      let xo = x_base t i and zo = z_base t i in
      let sb = Buffer.create (Array.length support + 24) in
      Array.iter
        (fun q ->
          let bits =
            (if get_bit buf xo q then 1 else 0)
            lor if get_bit buf zo q then 2 else 0
          in
          Buffer.add_char sb
            (match bits with 0 -> 'I' | 1 -> 'X' | 2 -> 'Z' | _ -> 'Y'))
        support;
      Buffer.add_char sb (if is_neg t i then '-' else '+');
      (match Angle.view t.angles.(i) with
      | Angle.Const _ ->
        Buffer.add_string sb
          (Printf.sprintf "%Lx" (Int64.bits_of_float t.angles.(i)))
      | Angle.Slot { id; negated } ->
        Buffer.add_string sb
          (Printf.sprintf "S%d%c" (Hashtbl.find local id)
             (if negated then '-' else '+')));
      Buffer.contents sb)

let canonical_form t =
  let rows = canonical_row_strings t in
  Printf.sprintf "k%d;r%d;%s" t.st.w_tot (Array.length rows)
    (String.concat ";" (Array.to_list rows))

let digest_of_canonical_form form =
  let sorted_rows =
    match String.split_on_char ';' form with
    | k :: r :: rows -> k :: r :: List.sort String.compare rows
    | short -> short
  in
  Digest.to_hex
    (Digest.string ("phoenix-bsf-v1;" ^ String.concat ";" sorted_rows))

let canonical_digest t = digest_of_canonical_form (canonical_form t)

(* Deliberate cache corruption for fault-injection tests of [audit] and
   the analysis layer.  Only the redundant state is touched — never the
   bit words — so every corruption is exactly the class of bug the
   incremental bookkeeping could introduce. *)
module Testing = struct
  let corrupt_column_count t q =
    if q < 0 || q >= t.n then invalid_arg "Bsf.Testing.corrupt_column_count";
    t.st.col_c.(q) <- t.st.col_c.(q) + 1

  let corrupt_row_weight t i =
    if i < 0 || i >= num_rows t then
      invalid_arg "Bsf.Testing.corrupt_row_weight";
    t.wts.(i) <- t.wts.(i) + 1

  let corrupt_nonlocal_count t = t.st.n_nl <- t.st.n_nl + 1

  let corrupt_sign t i =
    if i < 0 || i >= num_rows t then invalid_arg "Bsf.Testing.corrupt_sign";
    set_neg t i (not (is_neg t i))
end

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  for i = 0 to num_rows t - 1 do
    Format.fprintf fmt "%c%a (θ=%g)@,"
      (if is_neg t i then '-' else '+')
      Pauli_string.pp (row_pauli t i) t.angles.(i)
  done;
  Format.fprintf fmt "@]"
