module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Prng = Phoenix_util.Prng

type result = {
  circuit : Circuit.t;
  initial_layout : Layout.t;
  final_layout : Layout.t;
  num_swaps : int;
}

let check_device name topo n_log =
  let n_phys = Topology.num_qubits topo in
  if n_log > n_phys then
    invalid_arg
      (Printf.sprintf
         "%s: circuit needs %d logical qubits but the device has only %d" name
         n_log n_phys);
  if not (Topology.is_connected topo) then
    invalid_arg
      (Printf.sprintf
         "%s: the %d-qubit coupling graph is disconnected — routing cannot \
          reach every qubit"
         name n_phys)

(* Sort [a.(0 .. len-1)] ascending in place (heapsort: no allocation) and
   drop duplicates; returns the number of distinct values kept. *)
let rec sift (a : int array) root stop =
  let child = (2 * root) + 1 in
  if child < stop then begin
    let child =
      if child + 1 < stop && a.(child) < a.(child + 1) then child + 1 else child
    in
    if a.(root) < a.(child) then begin
      let t = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- t;
      sift a child stop
    end
  end

let sort_uniq_prefix (a : int array) len =
  for start = (len / 2) - 1 downto 0 do
    sift a start len
  done;
  for stop = len - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(stop);
    a.(stop) <- t;
    sift a 0 stop
  done;
  let kept = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!kept - 1) then begin
      a.(!kept) <- a.(i);
      incr kept
    end
  done;
  !kept

(* The layout as two mutable arrays, which each SWAP updates in place. *)
type sites = { l2p : int array; p2l : int array (* -1 = unoccupied *) }

let sites_of_layout layout =
  let l2p = Layout.to_l2p layout in
  let p2l = Array.make (Layout.n_physical layout) (-1) in
  Array.iteri (fun l p -> p2l.(p) <- l) l2p;
  { l2p; p2l }

let swap_sites s p q =
  let lp = s.p2l.(p) and lq = s.p2l.(q) in
  s.p2l.(p) <- lq;
  s.p2l.(q) <- lp;
  if lp <> -1 then s.l2p.(lp) <- q;
  if lq <> -1 then s.l2p.(lq) <- p

let layout_of_sites initial s =
  Layout.of_l2p ~n_physical:(Layout.n_physical initial) s.l2p

(* One step along a shortest path from [pa] toward [pb]: the first
   neighbour of [pa], in ascending order, that is closer to [pb]. *)
let closer_step topo pa pb =
  let n = Topology.num_qubits topo and dist = Topology.distances topo in
  let nbr = Topology.neighbor_array topo pa in
  let rec find k =
    if k >= Array.length nbr then None
    else
      let nb = nbr.(k) in
      if dist.((nb * n) + pb) < dist.((pa * n) + pb) then
        Some ((min pa nb * n) + max pa nb)
      else find (k + 1)
  in
  find 0

(* The candidate SWAPs touching the given physical sites, encoded as
   [min·n_phys + max] in [cand], ascending and distinct; returns their
   number.  [cand] needs room for Σ deg(site). *)
let candidates topo cand sites n_sites =
  let n = Topology.num_qubits topo in
  let len = ref 0 in
  for k = 0 to n_sites - 1 do
    let p = sites.(k) in
    let nbr = Topology.neighbor_array topo p in
    for j = 0 to Array.length nbr - 1 do
      let q = nbr.(j) in
      cand.(!len) <- (min p q * n) + max p q;
      incr len
    done
  done;
  sort_uniq_prefix cand !len

let max_degree topo =
  let d = ref 0 in
  for p = 0 to Topology.num_qubits topo - 1 do
    d := max !d (Array.length (Topology.neighbor_array topo p))
  done;
  !d

(* --- SABRE ------------------------------------------------------------- *)

(* Gate tables of one circuit, built once per routing call: the logical
   qubits of every gate in [Gate.qubits] order ([q1 = -1] for a 1Q gate)
   and the per-qubit program-order queues as one CSR array — the gates
   of qubit [q] are [qidx.(qoff.(q) .. qoff.(q+1) - 1)], ascending. *)
type tables = {
  gates : Gate.t array;
  n_log : int;
  q0 : int array;
  q1 : int array;
  qoff : int array;
  qidx : int array;
}

(* The per-qubit queues of gates whose qubits are [q0]/[q1]. *)
let tables_of_qubits gates n_log q0 q1 =
  let m = Array.length q0 in
  let qoff = Array.make (n_log + 1) 0 in
  let count q = qoff.(q + 1) <- qoff.(q + 1) + 1 in
  for i = 0 to m - 1 do
    count q0.(i);
    if q1.(i) >= 0 then count q1.(i)
  done;
  for q = 1 to n_log do
    qoff.(q) <- qoff.(q) + qoff.(q - 1)
  done;
  let qidx = Array.make qoff.(n_log) 0 in
  let fill = Array.sub qoff 0 n_log in
  let push q i =
    qidx.(fill.(q)) <- i;
    fill.(q) <- fill.(q) + 1
  in
  for i = 0 to m - 1 do
    push q0.(i) i;
    if q1.(i) >= 0 then push q1.(i) i
  done;
  { gates; n_log; q0; q1; qoff; qidx }

let tables circ =
  let gates = Circuit.gate_array circ in
  tables_of_qubits gates (Circuit.num_qubits circ)
    (Array.map Gate.first_qubit gates)
    (Array.map Gate.second_qubit gates)

let reversed_tables t =
  let m = Array.length t.gates in
  let rev a = Array.init m (fun i -> a.(m - 1 - i)) in
  tables_of_qubits (rev t.gates) t.n_log (rev t.q0) (rev t.q1)

(* Route [t] from [initial]; the emitted gates (reversed) are collected
   only when [emit] holds, since refinement passes need just the final
   layout.  Dependencies are the per-qubit program order: a gate is
   ready when it heads the queue of each of its qubits.  The work of a
   step follows what its SWAP or its emissions changed (DESIGN §2.15). *)
let run ~emit ~lookahead ~decay ~seed topo t initial =
  let n_phys = Topology.num_qubits topo in
  let dist = Topology.distances topo in
  let m = Array.length t.gates in
  let n_log = t.n_log in
  let q0 = t.q0 and q1 = t.q1 and qidx = t.qidx and qoff = t.qoff in
  let s = sites_of_layout initial in
  let l2p = s.l2p and p2l = s.p2l in
  let to_phys q = l2p.(q) in
  let head = Array.sub qoff 0 n_log in
  let head_of q = if head.(q) < qoff.(q + 1) then qidx.(head.(q)) else -1 in
  let is_ready i = head_of q0.(i) = i && (q1.(i) < 0 || head_of q1.(i) = i) in
  let gate_distance i = dist.((l2p.(q0.(i)) * n_phys) + l2p.(q1.(i))) in
  (* pending 2Q gates in program order: a doubly linked list through
     [next]/[prev] with sentinel [m], so the extended set never rescans
     finished gates *)
  let next = Array.make (m + 1) m and prev = Array.make (m + 1) m in
  let last = ref m in
  for i = 0 to m - 1 do
    if q1.(i) >= 0 then begin
      next.(!last) <- i;
      prev.(i) <- !last;
      last := i
    end
  done;
  next.(!last) <- m;
  prev.(m) <- !last;
  let remaining = ref m in
  let emitted = ref [] in
  (* The ready gates, unordered; a ready gate heads its first qubit's
     queue, so [fpos] indexes the set by that qubit.  After a drain they
     are exactly the front layer. *)
  let nl = max 1 n_log in
  let front = Array.make nl 0 and n_front = ref 0 and fpos = Array.make nl 0 in
  (* The drain runs in passes, numbered across the call.  [stamp.(q)] is
     the pass in which the head of [q] became its head; [cur] holds the
     ready gates the running pass still checks and [nxt] those that wait
     for the next one, both ascending.  A ready gate that failed its
     check is checked again only after a pop made it ready or a SWAP
     moved one of its qubits. *)
  let pass = ref 0 and stamp = Array.make nl 0 in
  let cur = Array.make nl 0 and n_cur = ref 0 in
  let nxt = Array.make nl 0 and n_nxt = ref 0 in
  let insert a n i =
    let j = ref !n in
    while !j > 0 && a.(!j - 1) > i do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- i;
    incr n
  in
  (* [h] became ready by a pop in the running pass.  The pass's sorted
     snapshot of the queue heads held [h] exactly when [h] already headed
     one of its queues before the pass began; then it is checked in this
     pass, after the popped gate (its queue predecessor), and otherwise
     in the next. *)
  let became_ready h =
    front.(!n_front) <- h;
    fpos.(q0.(h)) <- !n_front;
    incr n_front;
    let k = !pass in
    if stamp.(q0.(h)) < k || (q1.(h) >= 0 && stamp.(q1.(h)) < k) then
      insert cur n_cur h
    else insert nxt n_nxt h
  in
  let emit_gate i =
    if emit then emitted := Gate.map_qubits to_phys t.gates.(i) :: !emitted;
    decr n_front;
    let tail = front.(!n_front) in
    front.(fpos.(q0.(i))) <- tail;
    fpos.(q0.(tail)) <- fpos.(q0.(i));
    let a = q0.(i) and b = q1.(i) in
    head.(a) <- head.(a) + 1;
    stamp.(a) <- !pass;
    if b >= 0 then begin
      head.(b) <- head.(b) + 1;
      stamp.(b) <- !pass;
      next.(prev.(i)) <- next.(i);
      prev.(next.(i)) <- prev.(i)
    end;
    decr remaining;
    let ha = head_of a in
    if ha >= 0 && is_ready ha then became_ready ha;
    if b >= 0 then begin
      let hb = head_of b in
      if hb >= 0 && hb <> ha && is_ready hb then became_ready hb
    end
  in
  (* Emit every ready gate that can execute; ends with a pass that has
     nothing to check, which is exactly when a pass over all the heads
     would emit nothing. *)
  let drain () =
    while !n_cur > 0 do
      incr pass;
      n_nxt := 0;
      let j = ref 0 in
      while !j < !n_cur do
        let i = cur.(!j) in
        incr j;
        if q1.(i) < 0 || gate_distance i = 1 then emit_gate i
      done;
      Array.blit nxt 0 cur 0 !n_nxt;
      n_cur := !n_nxt
    done
  in
  for q = 0 to n_log - 1 do
    let i = head_of q in
    if i >= 0 && q0.(i) = q && is_ready i then begin
      front.(!n_front) <- i;
      fpos.(q) <- !n_front;
      incr n_front;
      cur.(!n_cur) <- i;
      incr n_cur
    end
  done;
  n_cur := sort_uniq_prefix cur !n_cur;
  (* Scoring state.  Every gate of the front and of the extended set
     adds one touch entry to each of its two qubits' lists, packing the
     other qubit and the side (0 front, 1 extended) as [partner·2 + side];
     [front_sum]/[ext_sum] are the sets' distance sums.  A candidate
     (p, q) moves only [p2l p] and [p2l q], so its sums are these plus
     the distance changes on their two lists. *)
  let n_ext_max = max 0 (min lookahead m) in
  let touch_head = Array.make nl (-1) and touched = Array.make nl 0 in
  let n_touched = ref 0 in
  let touch_cap = max 1 (n_log + (2 * n_ext_max)) in
  let touch_entry = Array.make touch_cap 0 and touch_next = Array.make touch_cap 0 in
  let n_touch = ref 0 in
  let add_touch l entry =
    if touch_head.(l) < 0 then begin
      touched.(!n_touched) <- l;
      incr n_touched
    end;
    touch_entry.(!n_touch) <- entry;
    touch_next.(!n_touch) <- touch_head.(l);
    touch_head.(l) <- !n_touch;
    incr n_touch
  in
  let touch_gate i side =
    add_touch q0.(i) ((q1.(i) lsl 1) lor side);
    add_touch q1.(i) ((q0.(i) lsl 1) lor side)
  in
  let front_sum = ref 0 and ext_sum = ref 0 and n_ext = ref 0 in
  let rebuild () =
    for k = 0 to !n_touched - 1 do
      touch_head.(touched.(k)) <- -1
    done;
    n_touched := 0;
    n_touch := 0;
    front_sum := 0;
    for k = 0 to !n_front - 1 do
      let i = front.(k) in
      front_sum := !front_sum + gate_distance i;
      touch_gate i 0
    done;
    (* the next [lookahead] pending 2Q gates beyond the front *)
    ext_sum := 0;
    n_ext := 0;
    let i = ref next.(m) in
    while !i <> m && !n_ext < lookahead do
      if not (is_ready !i) then begin
        ext_sum := !ext_sum + gate_distance !i;
        touch_gate !i 1;
        incr n_ext
      end;
      i := next.(!i)
    done
  in
  (* Add to [d_front]/[d_ext] the distance changes when logical [l] moves
     from site [src] to [dst] and [other] the opposite way; a gate
     between the two keeps its distance. *)
  let d_front = ref 0 and d_ext = ref 0 in
  let moved l src dst other =
    let e = ref touch_head.(l) in
    while !e >= 0 do
      let x = touch_entry.(!e) in
      let partner = x lsr 1 in
      if partner <> other then begin
        let pm = l2p.(partner) in
        let d = dist.((dst * n_phys) + pm) - dist.((src * n_phys) + pm) in
        if x land 1 = 0 then d_front := !d_front + d else d_ext := !d_ext + d
      end;
      e := touch_next.(!e)
    done
  in
  let front_sites = Array.make (max 1 (2 * n_log)) 0 in
  let cand = Array.make (max 1 (2 * n_log * max_degree topo)) 0 in
  let draws = Array.make (Array.length cand) 0.0 in
  let decay_arr = Array.make n_phys 1.0 in
  let rng = Prng.create seed in
  let swaps = ref 0 and stall = ref 0 in
  (* the sums of the last scored step still hold: its drain emitted
     nothing, so the front and the extended set are unchanged *)
  let carried = ref false in
  (* every step ends with a drain, so only the first step starts with one *)
  let drained = ref false in
  while !remaining > 0 do
    (* Cooperative cancellation point: routing has no cheaper fallback
       rung, so an expired budget propagates out of the pass. *)
    Phoenix_util.Budget.checkpoint ();
    if not !drained then drain ();
    drained := true;
    if !remaining > 0 then begin
      (* after a drain every ready gate is a 2Q gate that cannot execute:
         that is the front layer *)
      assert (!n_front > 0);
      let scored = !stall <= 2 * n_phys in
      let best_front = ref 0 and best_ext = ref 0 in
      let code =
        if not scored then begin
          let i = ref front.(0) in
          for k = 1 to !n_front - 1 do
            i := min !i front.(k)
          done;
          match closer_step topo l2p.(q0.(!i)) l2p.(q1.(!i)) with
          | Some c -> c
          | None -> assert false (* connected: some neighbor is closer *)
        end
        else begin
          if not !carried then rebuild ();
          for k = 0 to !n_front - 1 do
            let i = front.(k) in
            front_sites.(2 * k) <- l2p.(q0.(i));
            front_sites.((2 * k) + 1) <- l2p.(q1.(i))
          done;
          let n_cand = candidates topo cand front_sites (2 * !n_front) in
          (* one draw per candidate, in ascending candidate order *)
          Prng.fill_float rng 1.0 draws n_cand;
          let best = ref (-1) and best_score = ref 0.0 in
          for k = 0 to n_cand - 1 do
            let c = cand.(k) in
            let p = c / n_phys in
            let q = c - (p * n_phys) in
            let lp = p2l.(p) and lq = p2l.(q) in
            d_front := 0;
            d_ext := 0;
            if lp >= 0 then moved lp p q lq;
            if lq >= 0 then moved lq q p lp;
            let ext_cost =
              if !n_ext = 0 then 0.0
              else float_of_int (!ext_sum + !d_ext) /. float_of_int !n_ext
            in
            let decay_factor = Float.max decay_arr.(p) decay_arr.(q) in
            let score =
              decay_factor
              *. (float_of_int (!front_sum + !d_front) +. (0.5 *. ext_cost))
              +. (1e-9 *. draws.(k))
            in
            (* the first minimum wins ties *)
            if !best < 0 || score < !best_score then begin
              best := c;
              best_score := score;
              best_front := !d_front;
              best_ext := !d_ext
            end
          done;
          assert (!best >= 0);
          !best
        end
      in
      let p = code / n_phys and q = code mod n_phys in
      let lp = p2l.(p) and lq = p2l.(q) in
      swap_sites s p q;
      if emit then emitted := Gate.Swap (p, q) :: !emitted;
      incr swaps;
      decay_arr.(p) <- decay_arr.(p) +. decay;
      decay_arr.(q) <- decay_arr.(q) +. decay;
      if !swaps mod (5 * n_phys) = 0 then Array.fill decay_arr 0 n_phys 1.0;
      (* only the ready gates on the two moved qubits can have become
         executable *)
      n_cur := 0;
      let hp = if lp >= 0 then head_of lp else -1 in
      if hp >= 0 && is_ready hp then insert cur n_cur hp;
      let hq = if lq >= 0 then head_of lq else -1 in
      if hq >= 0 && hq <> hp && is_ready hq then insert cur n_cur hq;
      let before = !remaining in
      drain ();
      if !remaining < before then begin
        stall := 0;
        carried := false
      end
      else begin
        incr stall;
        carried := scored;
        front_sum := !front_sum + !best_front;
        ext_sum := !ext_sum + !best_ext
      end
    end
  done;
  (!emitted, layout_of_sites initial s, !swaps)

(* The routed gates are the circuit's gates mapped through a validated
   layout plus SWAPs on coupling edges, so every qubit is in range. *)
let result_of ~n_phys initial (emitted, final_layout, num_swaps) =
  {
    circuit = Circuit.of_validated n_phys (List.rev emitted);
    initial_layout = initial;
    final_layout;
    num_swaps;
  }

let route ?initial ?(lookahead = 20) ?(decay = 0.001) ?(seed = 7) topo circ =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  check_device "Sabre.route" topo n_log;
  let initial =
    match initial with
    | Some l -> l
    | None -> Layout.trivial ~n_logical:n_log ~n_physical:n_phys
  in
  result_of ~n_phys initial
    (run ~emit:true ~lookahead ~decay ~seed topo (tables circ) initial)

(* The first forward pass of the refinement routes the seed layout, which
   is also the seed-layout candidate: route it once and reuse it. *)
let route_with_refinement ?initial ?(iterations = 1) ?(lookahead = 20)
    ?(seed = 7) topo circ =
  let n_phys = Topology.num_qubits topo in
  check_device "Sabre.route_with_refinement" topo (Circuit.num_qubits circ);
  let seed_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  let fwd = tables circ in
  let decay = 0.001 in
  let route_fwd ~emit layout =
    run ~emit ~lookahead ~decay ~seed topo fwd layout
  in
  let r0 = result_of ~n_phys seed_layout (route_fwd ~emit:true seed_layout) in
  if iterations <= 0 then r0
  else begin
    let bwd = reversed_tables fwd in
    let backward layout =
      let _, l, _ = run ~emit:false ~lookahead ~decay ~seed topo bwd layout in
      l
    in
    let rec refine layout k =
      if k = 0 then layout
      else
        let _, l, _ = route_fwd ~emit:false layout in
        refine (backward l) (k - 1)
    in
    let refined = refine (backward r0.final_layout) (iterations - 1) in
    let r1 = result_of ~n_phys refined (route_fwd ~emit:true refined) in
    (* keep the better of the refined and the seed layout *)
    if r0.num_swaps <= r1.num_swaps then r0 else r1
  end

(* --- commuting-set routing --------------------------------------------- *)

(* Free-order routing for mutually commuting gate sets: every pending 2Q
   gate is permanently "ready"; each step executes all adjacent ones and
   otherwise inserts the SWAP minimizing the total pending distance
   (newly-executable count, then the busier endpoint's ASAP layer,
   breaking ties), with a shortest-path step as a guaranteed-progress
   fallback.

   Pending gates live in arrays with live flags, plus one incidence list
   per logical qubit.  Every pending gate is at distance ≥ 2 when a step
   scores its candidates (the executable ones were emitted), and a SWAP
   only moves the two logical qubits it exchanges, so a candidate is
   scored from the gates incident to those two: the total distance moves
   by their change, and the newly executable gates are among them. *)
let route_commuting ?initial topo circ =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  check_device "Sabre.route_commuting" topo n_log;
  let initial_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  let dist = Topology.distances topo in
  let s = sites_of_layout initial_layout in
  let l2p = s.l2p and p2l = s.p2l in
  let to_phys q = l2p.(q) in
  let place g = Gate.map_qubits to_phys g in
  let all = Circuit.gates circ in
  (* 1Q gates commute with everything here: emit them first. *)
  let emitted =
    ref
      (List.fold_left
         (fun acc g -> if Gate.is_two_qubit g then acc else place g :: acc)
         [] all)
  in
  let pending = Array.of_list (List.filter Gate.is_two_qubit all) in
  let np = Array.length pending in
  let ga = Array.map Gate.first_qubit pending in
  let gb = Array.map Gate.second_qubit pending in
  let deg = Array.make n_log 0 in
  for k = 0 to np - 1 do
    deg.(ga.(k)) <- deg.(ga.(k)) + 1;
    deg.(gb.(k)) <- deg.(gb.(k)) + 1
  done;
  (* [inc.(l).(0 .. inc_len.(l)-1)]: the pending gates on logical [l] *)
  let inc = Array.map (fun d -> Array.make d 0) deg in
  let inc_len = Array.make n_log 0 in
  let add l k =
    inc.(l).(inc_len.(l)) <- k;
    inc_len.(l) <- inc_len.(l) + 1
  in
  let remove l k =
    let a = inc.(l) and len = inc_len.(l) in
    let j = ref 0 in
    while a.(!j) <> k do
      incr j
    done;
    a.(!j) <- a.(len - 1);
    inc_len.(l) <- len - 1
  in
  for k = 0 to np - 1 do
    add ga.(k) k;
    add gb.(k) k
  done;
  let live = Array.make np true and n_live = ref np and first_live = ref 0 in
  (* [ready.(0 .. n-1)]: gates at distance 1 (duplicates allowed) *)
  let ready = Array.make (max 1 np) 0 and n_ready = ref 0 in
  (* [moved ~collect l src dst] adds to [delta] the distance change of
     the gates on logical [l] when it moves from site [src] to [dst] and
     the qubit on [dst] moves to [src], and counts in [new_ready] those
     that end at distance 1 (collecting them into [ready] when
     [collect]).  A gate between the two moved qubits is visited from
     both; it keeps its distance. *)
  let delta = ref 0 and new_ready = ref 0 in
  let moved ~collect l src dst =
    if l >= 0 then begin
      let a = inc.(l) in
      for j = 0 to inc_len.(l) - 1 do
        let k = a.(j) in
        let pm = l2p.(if ga.(k) = l then gb.(k) else ga.(k)) in
        let after = dist.((dst * n_phys) + if pm = dst then src else pm) in
        delta := !delta + after - dist.((src * n_phys) + pm);
        if after = 1 then begin
          incr new_ready;
          if collect then begin
            ready.(!n_ready) <- k;
            incr n_ready
          end
        end
      done
    end
  in
  let swaps = ref 0 in
  (* ASAP busy layers per physical qubit, to steer SWAPs toward idle
     regions (depth awareness). *)
  let busy = Array.make n_phys 0 in
  let occupy p q =
    let layer = 1 + max busy.(p) busy.(q) in
    busy.(p) <- layer;
    busy.(q) <- layer
  in
  let total = ref 0 in
  let stall = ref 0 (* SWAPs since a gate was last emitted *) in
  (* Emit the ready gates in pending (program) order; each was at
     distance 1, so the total pending distance drops by their number. *)
  let emit_ready () =
    let n = sort_uniq_prefix ready !n_ready in
    if n > 0 then stall := 0;
    for j = 0 to n - 1 do
      let k = ready.(j) in
      occupy l2p.(ga.(k)) l2p.(gb.(k));
      emitted := place pending.(k) :: !emitted;
      live.(k) <- false;
      remove ga.(k) k;
      remove gb.(k) k
    done;
    n_live := !n_live - n;
    total := !total - n;
    while !first_live < np && not live.(!first_live) do
      incr first_live
    done
  in
  for k = 0 to np - 1 do
    let d = dist.((l2p.(ga.(k)) * n_phys) + l2p.(gb.(k))) in
    total := !total + d;
    if d = 1 then begin
      ready.(!n_ready) <- k;
      incr n_ready
    end
  done;
  (* The candidate SWAPs are the coupling edges with an endpoint whose
     logical qubit has pending gates, in ascending [min·n_phys + max]
     order: [Topology.edges] is sorted with the small endpoint first. *)
  let edges = Array.of_list (Topology.edges topo) in
  let pending_at p =
    let l = p2l.(p) in
    l >= 0 && inc_len.(l) > 0
  in
  while !n_live > 0 do
    Phoenix_util.Budget.checkpoint ();
    emit_ready ();
    if !n_live > 0 then begin
      (* One step along a shortest path for the first pending gate: the
         fallback when no SWAP lowers the total, and the only move once
         more than 2·n_phys SWAPs have emitted nothing.  The forced gate
         gets closer on every step, so such a stretch ends with a gate
         executed; this breaks the cycles a fallback step and the greedy
         step undoing it can otherwise form. *)
      let forced () =
        let k = !first_live in
        match closer_step topo l2p.(ga.(k)) l2p.(gb.(k)) with
        | Some c -> (c / n_phys, c mod n_phys)
        | None -> assert false (* connected: some neighbor is closer *)
      in
      let p, q =
        if !stall > 2 * n_phys then forced ()
        else begin
          let best = ref (-1) and best_d = ref 0 and best_newly = ref 0
          and best_busy = ref 0 in
          for e = 0 to Array.length edges - 1 do
            let p, q = edges.(e) in
            if pending_at p || pending_at q then begin
              delta := 0;
              new_ready := 0;
              moved ~collect:false p2l.(p) p q;
              moved ~collect:false p2l.(q) q p;
              let d = !total + !delta and newly = - !new_ready
              and b = max busy.(p) busy.(q) in
              (* lexicographic (distance, −newly, busy); first minimum wins *)
              if
                !best < 0
                || d < !best_d
                || d = !best_d
                   && (newly < !best_newly
                      || (newly = !best_newly && b < !best_busy))
              then begin
                best := e;
                best_d := d;
                best_newly := newly;
                best_busy := b
              end
            end
          done;
          if !best_d < !total then edges.(!best) else forced ()
        end
      in
      (* only the gates on the two moved qubits can have become ready *)
      delta := 0;
      n_ready := 0;
      moved ~collect:true p2l.(p) p q;
      moved ~collect:true p2l.(q) q p;
      total := !total + !delta;
      swap_sites s p q;
      emitted := Gate.Swap (p, q) :: !emitted;
      occupy p q;
      incr swaps;
      incr stall
    end
  done;
  result_of ~n_phys initial_layout
    (!emitted, layout_of_sites initial_layout s, !swaps)
