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

let tri c = c * (c - 1) / 2

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
      f (b + Bitvec.ctz_word !w);
      w := !w land (!w - 1)
    done
  done

let slice_or_popcount buf o1 o2 nw =
  let acc = ref 0 in
  for k = 0 to nw - 1 do
    acc :=
      !acc
      + Bitvec.popcount_word
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
      let q = b + Bitvec.ctz_word !w in
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

(* --- Borrowing row views -------------------------------------------------

   Read-only traversal without materializing a [Pauli_string] (two bit
   vectors and a record) per row: one reusable cursor borrows the
   arena.  The audit below, the analysis-layer replay lint and
   [to_terms] all walk the tableau through this window. *)

type rview = { rt : t; mutable ri : int }

let view t i =
  check_row t i;
  { rt = t; ri = i }

let iter_views t f =
  let rows = num_rows t in
  if rows > 0 then begin
    let v = { rt = t; ri = 0 } in
    for i = 0 to rows - 1 do
      v.ri <- i;
      f v
    done
  end

let view_index v = v.ri
let view_neg v = is_neg v.rt v.ri
let view_angle v = v.rt.angles.(v.ri)
let view_weight v = v.rt.wts.(v.ri)

let view_x v q =
  if q < 0 || q >= v.rt.n then invalid_arg "Bsf.view_x: qubit out of range";
  get_bit (Arena.buffer v.rt.ar) (x_base v.rt v.ri) q

let view_z v q =
  if q < 0 || q >= v.rt.n then invalid_arg "Bsf.view_z: qubit out of range";
  get_bit (Arena.buffer v.rt.ar) (z_base v.rt v.ri) q

let row_words t = t.wpr

let view_x_word v k =
  if k < 0 || k >= v.rt.wpr then invalid_arg "Bsf.view_x_word: out of range";
  (Arena.buffer v.rt.ar).(x_base v.rt v.ri + k)

let view_z_word v k =
  if k < 0 || k >= v.rt.wpr then invalid_arg "Bsf.view_z_word: out of range";
  (Arena.buffer v.rt.ar).(z_base v.rt v.ri + k)

let view_pauli v = row_pauli v.rt v.ri

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
  iter_views t (fun v ->
      let i = view_index v in
      let xo = x_base t i and zo = z_base t i in
      let w = slice_or_popcount buf xo zo t.wpr in
      if view_weight v <> w then
        add "row %d: cached weight %d, bit vectors say %d" i (view_weight v) w;
      let angle = view_angle v in
      if not (Float.is_finite angle) && not (Angle.is_slot angle) then
        add "row %d: non-finite angle %h" i angle;
      account_slice fresh 1 buf xo zo t.wpr w);
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
      + Bitvec.popcount_word
          (Array.unsafe_get buf (xi + k) land Array.unsafe_get buf (zj + k))
      + Bitvec.popcount_word
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
let cost_of_counters ~rows ~w_tot ~n_nl ~sum_c ~tri_c ~sum_cx ~tri_cx ~sum_cz
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

(* --- Allocation-free candidate evaluation -------------------------------

   A candidate 2Q Clifford on (a,b) only rewrites columns a and b, so its
   effect on the cost is a function of those two columns alone.  The
   workspace transposes them into row-indexed words once per qubit pair;
   each candidate then costs a handful of word-parallel XOR/popcount
   passes over R bits — no tableau copy, no conjugation, no pair loop. *)
module Delta = struct
  let bpw = Bitvec.bits_per_word

  (* Conjugation by a generator is GF(2)-linear on the four operand
     columns (signs do not affect the cost), so each (kind, operand
     order) reduces to four 4-bit masks: new column = XOR of the old
     columns selected by the mask.  The masks are derived once at module
     init by pushing symbolic basis masks through [Clifford2q.decompose]
     — the exact instruction sequence [apply_clifford2q] executes — so
     they cannot drift from the tableau semantics. *)
  let kind_index = function
    | Clifford2q.CXX -> 0
    | Clifford2q.CYY -> 1
    | Clifford2q.CZZ -> 2
    | Clifford2q.CXY -> 3
    | Clifford2q.CYZ -> 4
    | Clifford2q.CZX -> 5

  (* masks.(2·kind + order): order 0 = gate on (a,b), 1 = gate on (b,a);
     each entry is (m_xa, m_za, m_xb, m_zb) over basis bits
     1=xa, 2=za, 4=xb, 8=zb. *)
  let col_masks =
    let compute kind swapped =
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
      !xa, !za, !xb, !zb
    in
    Array.init 12 (fun i ->
        let kind = List.nth Clifford2q.all_kinds (i / 2) in
        compute kind (i mod 2 = 1))

  type ws = {
    mutable nwords : int;
    (* column a / b of the x and z halves, transposed to row-major bits *)
    mutable xa : int array;
    mutable za : int array;
    mutable xb : int array;
    mutable zb : int array;
    (* rows whose weight outside {a,b} is 0 / 1: the only rows whose
       local/nonlocal status a candidate can change *)
    mutable m0 : int array;
    mutable m1 : int array;
    mutable qa : int;
    mutable qb : int;
    mutable nl_before : int; (* nonlocal rows of m0/m1 under current cols *)
    (* snapshot of the tableau counters at load time *)
    mutable s_rows : int;
    mutable s_w_tot : int;
    mutable s_n_nl : int;
    mutable s_sum_c : int;
    mutable s_tri_c : int;
    mutable s_sum_cx : int;
    mutable s_tri_cx : int;
    mutable s_sum_cz : int;
    mutable s_tri_cz : int;
    mutable ca : int;
    mutable cb : int;
    mutable cxa : int;
    mutable cxb : int;
    mutable cza : int;
    mutable czb : int;
  }

  let create () =
    {
      nwords = 0;
      xa = [||];
      za = [||];
      xb = [||];
      zb = [||];
      m0 = [||];
      m1 = [||];
      qa = -1;
      qb = -1;
      nl_before = 0;
      s_rows = 0;
      s_w_tot = 0;
      s_n_nl = 0;
      s_sum_c = 0;
      s_tri_c = 0;
      s_sum_cx = 0;
      s_tri_cx = 0;
      s_sum_cz = 0;
      s_tri_cz = 0;
      ca = 0;
      cb = 0;
      cxa = 0;
      cxb = 0;
      cza = 0;
      czb = 0;
    }

  let ensure_capacity ws nw =
    if Array.length ws.xa < nw then begin
      ws.xa <- Array.make nw 0;
      ws.za <- Array.make nw 0;
      ws.xb <- Array.make nw 0;
      ws.zb <- Array.make nw 0;
      ws.m0 <- Array.make nw 0;
      ws.m1 <- Array.make nw 0
    end
    else
      for wi = 0 to nw - 1 do
        ws.xa.(wi) <- 0;
        ws.za.(wi) <- 0;
        ws.xb.(wi) <- 0;
        ws.zb.(wi) <- 0;
        ws.m0.(wi) <- 0;
        ws.m1.(wi) <- 0
      done

  let load ws t ~a ~b =
    if a = b then invalid_arg "Bsf.Delta.load: qubits must differ";
    if a < 0 || a >= t.n || b < 0 || b >= t.n then
      invalid_arg "Bsf.Delta.load: qubit out of range";
    let rows = num_rows t in
    let nw = (rows + bpw - 1) / bpw in
    ensure_capacity ws (max nw 1);
    ws.nwords <- nw;
    ws.qa <- a;
    ws.qb <- b;
    let buf = Arena.buffer t.ar in
    let s = stride t in
    let wpr = t.wpr in
    let wa = a / bpw and sha = a mod bpw in
    let wb = b / bpw and shb = b mod bpw in
    for i = 0 to rows - 1 do
      let base = i * s in
      let xbits =
        ((Array.unsafe_get buf (base + wa) lsr sha) land 1)
        lor (((Array.unsafe_get buf (base + wb) lsr shb) land 1) lsl 1)
      in
      let zbits =
        ((Array.unsafe_get buf (base + wpr + wa) lsr sha) land 1)
        lor (((Array.unsafe_get buf (base + wpr + wb) lsr shb) land 1) lsl 1)
      in
      let wi = i / bpw in
      let bit = 1 lsl (i mod bpw) in
      if xbits land 1 <> 0 then ws.xa.(wi) <- ws.xa.(wi) lor bit;
      if xbits land 2 <> 0 then ws.xb.(wi) <- ws.xb.(wi) lor bit;
      if zbits land 1 <> 0 then ws.za.(wi) <- ws.za.(wi) lor bit;
      if zbits land 2 <> 0 then ws.zb.(wi) <- ws.zb.(wi) lor bit;
      let sup = xbits lor zbits in
      let w_out =
        Array.unsafe_get t.wts i - (sup land 1) - ((sup lsr 1) land 1)
      in
      if w_out = 0 then ws.m0.(wi) <- ws.m0.(wi) lor bit
      else if w_out = 1 then ws.m1.(wi) <- ws.m1.(wi) lor bit
    done;
    let nl = ref 0 in
    for wi = 0 to nw - 1 do
      let sa = ws.xa.(wi) lor ws.za.(wi) and sb = ws.xb.(wi) lor ws.zb.(wi) in
      nl :=
        !nl
        + Bitvec.popcount_word (ws.m1.(wi) land (sa lor sb))
        + Bitvec.popcount_word (ws.m0.(wi) land sa land sb)
    done;
    ws.nl_before <- !nl;
    let st = t.st in
    ws.s_rows <- rows;
    ws.s_w_tot <- st.w_tot;
    ws.s_n_nl <- st.n_nl;
    ws.s_sum_c <- st.sum_c;
    ws.s_tri_c <- st.tri_c;
    ws.s_sum_cx <- st.sum_cx;
    ws.s_tri_cx <- st.tri_cx;
    ws.s_sum_cz <- st.sum_cz;
    ws.s_tri_cz <- st.tri_cz;
    ws.ca <- st.col_c.(a);
    ws.cb <- st.col_c.(b);
    ws.cxa <- st.col_cx.(a);
    ws.cxb <- st.col_cx.(b);
    ws.cza <- st.col_cz.(a);
    ws.czb <- st.col_cz.(b)

  (* Resulting [cost] of the tableau the workspace was loaded from, were
     [gate] (on the loaded qubit pair) applied — without applying it.
     One fused pass over the column words: the candidate's columns are
     formed on the fly from the precomputed masks (XOR of at most four
     words each) and reduced to the six popcounts plus the nonlocality
     correction.  No allocation, no branches on the decomposition. *)
  let eval_masked ws ki order =
    let mxa, mza, mxb, mzb = col_masks.((2 * ki) + order) in
    let nw = ws.nwords in
    let cxa_n = ref 0
    and cza_n = ref 0
    and ca_n = ref 0
    and cxb_n = ref 0
    and czb_n = ref 0
    and cb_n = ref 0
    and nl_after = ref 0 in
    for wi = 0 to nw - 1 do
      let oxa = Array.unsafe_get ws.xa wi
      and oza = Array.unsafe_get ws.za wi
      and oxb = Array.unsafe_get ws.xb wi
      and ozb = Array.unsafe_get ws.zb wi in
      let sel m =
        (if m land 1 <> 0 then oxa else 0)
        lxor (if m land 2 <> 0 then oza else 0)
        lxor (if m land 4 <> 0 then oxb else 0)
        lxor (if m land 8 <> 0 then ozb else 0)
      in
      let xaw = sel mxa
      and zaw = sel mza
      and xbw = sel mxb
      and zbw = sel mzb in
      let sa = xaw lor zaw and sb = xbw lor zbw in
      cxa_n := !cxa_n + Bitvec.popcount_word xaw;
      cza_n := !cza_n + Bitvec.popcount_word zaw;
      ca_n := !ca_n + Bitvec.popcount_word sa;
      cxb_n := !cxb_n + Bitvec.popcount_word xbw;
      czb_n := !czb_n + Bitvec.popcount_word zbw;
      cb_n := !cb_n + Bitvec.popcount_word sb;
      nl_after :=
        !nl_after
        + Bitvec.popcount_word (Array.unsafe_get ws.m1 wi land (sa lor sb))
        + Bitvec.popcount_word (Array.unsafe_get ws.m0 wi land sa land sb)
    done;
    let nz c = if c > 0 then 1 else 0 in
    cost_of_counters ~rows:ws.s_rows
      ~w_tot:(ws.s_w_tot - nz ws.ca - nz ws.cb + nz !ca_n + nz !cb_n)
      ~n_nl:(ws.s_n_nl - ws.nl_before + !nl_after)
      ~sum_c:(ws.s_sum_c - ws.ca - ws.cb + !ca_n + !cb_n)
      ~tri_c:(ws.s_tri_c - tri ws.ca - tri ws.cb + tri !ca_n + tri !cb_n)
      ~sum_cx:(ws.s_sum_cx - ws.cxa - ws.cxb + !cxa_n + !cxb_n)
      ~tri_cx:(ws.s_tri_cx - tri ws.cxa - tri ws.cxb + tri !cxa_n + tri !cxb_n)
      ~sum_cz:(ws.s_sum_cz - ws.cza - ws.czb + !cza_n + !czb_n)
      ~tri_cz:(ws.s_tri_cz - tri ws.cza - tri ws.czb + tri !cza_n + tri !czb_n)

  (* Allocation-free entry point for search loops: score [kind] on the
     loaded pair, operands (a,b) — or (b,a) with [swapped] — without
     materializing a gate record. *)
  let eval_kind ws kind ~swapped =
    eval_masked ws (kind_index kind) (if swapped then 1 else 0)

  let eval ws (gate : Clifford2q.t) =
    let ga = gate.Clifford2q.a and gb = gate.Clifford2q.b in
    let order =
      if ga = ws.qa && gb = ws.qb then 0
      else if ga = ws.qb && gb = ws.qa then 1
      else invalid_arg "Bsf.Delta.eval: gate does not act on the loaded pair"
    in
    eval_masked ws (kind_index gate.Clifford2q.kind) order
end

let eval_clifford2q_delta t gate =
  let ws = Delta.create () in
  Delta.load ws t ~a:gate.Clifford2q.a ~b:gate.Clifford2q.b;
  Delta.eval ws gate -. cost t

let to_terms t =
  List.init (num_rows t) (fun i ->
      let angle = t.angles.(i) in
      let angle = if is_neg t i then Angle.neg angle else angle in
      row_pauli t i, angle)

let slots t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  for i = 0 to num_rows t - 1 do
    let angle = t.angles.(i) in
    match Angle.view angle with
    | Angle.Const _ -> ()
    | Angle.Slot { id; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id (Hashtbl.length seen);
        acc := angle :: !acc
      end
  done;
  Array.of_list (List.rev !acc)

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
  iter_views t (fun v ->
      Format.fprintf fmt "%c%a (θ=%g)@,"
        (if view_neg v then '-' else '+')
        Pauli_string.pp (view_pauli v) (view_angle v));
  Format.fprintf fmt "@]"
