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
let sort_uniq_prefix (a : int array) len =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift root stop =
    let child = (2 * root) + 1 in
    if child < stop then begin
      let child =
        if child + 1 < stop && a.(child) < a.(child + 1) then child + 1
        else child
      in
      if a.(root) < a.(child) then begin
        swap root child;
        sift child stop
      end
    end
  in
  for start = (len / 2) - 1 downto 0 do
    sift start len
  done;
  for stop = len - 1 downto 1 do
    swap 0 stop;
    sift 0 stop
  done;
  let kept = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!kept - 1) then begin
      a.(!kept) <- a.(i);
      incr kept
    end
  done;
  !kept

(* The layout as two mutable arrays; [swap_sites] is its own inverse, so
   a candidate is scored in place and undone by a second call. *)
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
    Array.iter
      (fun q ->
        cand.(!len) <- (min p q * n) + max p q;
        incr len)
      (Topology.neighbor_array topo p)
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

let tables_of_array n_log gates =
  let m = Array.length gates in
  let q0 = Array.make m 0 and q1 = Array.make m (-1) in
  let qoff = Array.make (n_log + 1) 0 in
  Array.iteri
    (fun i g ->
      match Gate.qubits g with
      | [ a ] ->
        q0.(i) <- a;
        qoff.(a + 1) <- qoff.(a + 1) + 1
      | [ a; b ] ->
        q0.(i) <- a;
        q1.(i) <- b;
        qoff.(a + 1) <- qoff.(a + 1) + 1;
        qoff.(b + 1) <- qoff.(b + 1) + 1
      | _ -> assert false)
    gates;
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
  tables_of_array (Circuit.num_qubits circ) (Circuit.gate_array circ)

let reversed_tables t =
  let m = Array.length t.gates in
  tables_of_array t.n_log (Array.init m (fun i -> t.gates.(m - 1 - i)))

(* Route [t] from [initial]; the emitted gates (reversed) are collected
   only when [emit] holds, since refinement passes need just the final
   layout.  Dependencies are the per-qubit program order: a gate is
   ready when it heads the queue of each of its qubits. *)
let run ~emit ~lookahead ~decay ~seed topo t initial =
  let n_phys = Topology.num_qubits topo in
  let dist = Topology.distances topo in
  let m = Array.length t.gates in
  let n_log = t.n_log in
  let q0 = t.q0 and q1 = t.q1 and qidx = t.qidx and qoff = t.qoff in
  let s = sites_of_layout initial in
  let l2p = s.l2p in
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
  let pop i =
    head.(q0.(i)) <- head.(q0.(i)) + 1;
    if q1.(i) >= 0 then begin
      head.(q1.(i)) <- head.(q1.(i)) + 1;
      next.(prev.(i)) <- next.(i);
      prev.(next.(i)) <- prev.(i)
    end;
    decr remaining
  in
  (* [snap.(0 .. n_snap-1)]: the queue heads at the start of the last
     drain pass, ascending.  A gate that becomes a head during a pass
     waits for the next one; this fixes the emission order. *)
  let snap = Array.make (max 1 n_log) 0 and n_snap = ref 0 in
  let snapshot () =
    let len = ref 0 in
    for q = 0 to n_log - 1 do
      let i = head_of q in
      if i >= 0 then begin
        snap.(!len) <- i;
        incr len
      end
    done;
    n_snap := sort_uniq_prefix snap !len
  in
  let drain () =
    let progressed = ref true in
    while !progressed && !remaining > 0 do
      progressed := false;
      snapshot ();
      for k = 0 to !n_snap - 1 do
        let i = snap.(k) in
        if is_ready i && (q1.(i) < 0 || gate_distance i = 1) then begin
          if emit then
            emitted := Gate.map_qubits (Array.get l2p) t.gates.(i) :: !emitted;
          pop i;
          progressed := true
        end
      done
    done
  in
  let front = Array.make (max 1 n_log) 0 and n_front = ref 0 in
  let front_mark = Array.make (max 1 m) (-1) in
  let front_sites = Array.make (max 1 (2 * n_log)) 0 in
  let cand = Array.make (max 1 (2 * n_log * max_degree topo)) 0 in
  let ext = Array.make (max 1 (min lookahead m)) 0 in
  let decay_arr = Array.make n_phys 1.0 in
  let rng = Prng.create seed in
  let swaps = ref 0 and stall = ref 0 and step = ref 0 in
  (* every step ends with a drain, so only the first step starts with one *)
  let drained = ref false in
  while !remaining > 0 do
    (* Cooperative cancellation point: routing has no cheaper fallback
       rung, so an expired budget propagates out of the pass. *)
    Phoenix_util.Budget.checkpoint ();
    if not !drained then drain ();
    drained := true;
    if !remaining > 0 then begin
      incr step;
      (* after a drain with no progress every ready head is a 2Q gate
         that cannot execute: that is the front layer *)
      n_front := 0;
      for k = 0 to !n_snap - 1 do
        let i = snap.(k) in
        if is_ready i then begin
          front.(!n_front) <- i;
          front_mark.(i) <- !step;
          incr n_front
        end
      done;
      assert (!n_front > 0);
      let code =
        if !stall > 2 * n_phys then begin
          let i = front.(0) in
          match closer_step topo l2p.(q0.(i)) l2p.(q1.(i)) with
          | Some c -> c
          | None -> assert false (* connected: some neighbor is closer *)
        end
        else begin
          for k = 0 to !n_front - 1 do
            let i = front.(k) in
            front_sites.(2 * k) <- l2p.(q0.(i));
            front_sites.((2 * k) + 1) <- l2p.(q1.(i))
          done;
          let n_cand = candidates topo cand front_sites (2 * !n_front) in
          (* the next [lookahead] pending 2Q gates beyond the front *)
          let n_ext = ref 0 and i = ref next.(m) in
          while !i <> m && !n_ext < lookahead do
            if front_mark.(!i) <> !step then begin
              ext.(!n_ext) <- !i;
              incr n_ext
            end;
            i := next.(!i)
          done;
          let best = ref (-1) and best_score = ref 0.0 in
          for k = 0 to n_cand - 1 do
            let c = cand.(k) in
            let p = c / n_phys and q = c mod n_phys in
            swap_sites s p q;
            let front_cost = ref 0 in
            for j = 0 to !n_front - 1 do
              front_cost := !front_cost + gate_distance front.(j)
            done;
            let ext_sum = ref 0 in
            for j = 0 to !n_ext - 1 do
              ext_sum := !ext_sum + gate_distance ext.(j)
            done;
            swap_sites s p q;
            let ext_cost =
              if !n_ext = 0 then 0.0
              else float_of_int !ext_sum /. float_of_int !n_ext
            in
            let decay_factor = Float.max decay_arr.(p) decay_arr.(q) in
            let score =
              decay_factor *. (float_of_int !front_cost +. (0.5 *. ext_cost))
              +. (1e-9 *. Prng.float rng 1.0)
            in
            (* the first minimum wins ties *)
            if !best < 0 || score < !best_score then begin
              best := c;
              best_score := score
            end
          done;
          assert (!best >= 0);
          !best
        end
      in
      let p = code / n_phys and q = code mod n_phys in
      swap_sites s p q;
      if emit then emitted := Gate.Swap (p, q) :: !emitted;
      incr swaps;
      decay_arr.(p) <- decay_arr.(p) +. decay;
      decay_arr.(q) <- decay_arr.(q) +. decay;
      if !swaps mod (5 * n_phys) = 0 then Array.fill decay_arr 0 n_phys 1.0;
      let before = !remaining in
      drain ();
      if !remaining < before then stall := 0 else incr stall
    end
  done;
  (!emitted, layout_of_sites initial s, !swaps)

let result_of ~n_phys initial (emitted, final_layout, num_swaps) =
  {
    circuit = Circuit.create n_phys (List.rev emitted);
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
  let seed_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  check_device "Sabre.route" topo (Circuit.num_qubits circ);
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
  let place g = Gate.map_qubits (Array.get l2p) g in
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
  let ga = Array.make np 0 and gb = Array.make np 0 in
  let deg = Array.make n_log 0 in
  Array.iteri
    (fun k g ->
      match Gate.qubits g with
      | [ a; b ] ->
        ga.(k) <- a;
        gb.(k) <- b;
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1
      | _ -> assert false)
    pending;
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
  let gdist k = dist.((l2p.(ga.(k)) * n_phys) + l2p.(gb.(k))) in
  let inc_sum l =
    let acc = ref 0 in
    if l >= 0 then
      for j = 0 to inc_len.(l) - 1 do
        acc := !acc + gdist inc.(l).(j)
      done;
    !acc
  in
  (* [ready.(0 .. n-1)]: gates at distance 1 (duplicates allowed) *)
  let ready = Array.make (max 1 np) 0 in
  let collect_ready n l =
    let n = ref n in
    if l >= 0 then
      for j = 0 to inc_len.(l) - 1 do
        let k = inc.(l).(j) in
        if gdist k = 1 then begin
          ready.(!n) <- k;
          incr n
        end
      done;
    !n
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
  let emit_ready n =
    let n = sort_uniq_prefix ready n in
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
  let n_ready = ref 0 in
  for k = 0 to np - 1 do
    let d = gdist k in
    total := !total + d;
    if d = 1 then begin
      ready.(!n_ready) <- k;
      incr n_ready
    end
  done;
  let frontier = Array.make n_phys 0 in
  let cand = Array.make (max 1 (n_phys * max_degree topo)) 0 in
  while !n_live > 0 do
    Phoenix_util.Budget.checkpoint ();
    emit_ready !n_ready;
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
        | Some c -> c
        | None -> assert false (* connected: some neighbor is closer *)
      in
      let code =
        if !stall > 2 * n_phys then forced ()
        else begin
          (* the sites of logical qubits with pending gates, ascending *)
          let n_frontier = ref 0 in
          for p = 0 to n_phys - 1 do
            let l = p2l.(p) in
            if l >= 0 && inc_len.(l) > 0 then begin
              frontier.(!n_frontier) <- p;
              incr n_frontier
            end
          done;
          let n_cand = candidates topo cand frontier !n_frontier in
          let best = ref (-1) and best_d = ref 0 and best_newly = ref 0
          and best_busy = ref 0 in
          for k = 0 to n_cand - 1 do
            let c = cand.(k) in
            let p = c / n_phys and q = c mod n_phys in
            let lp = p2l.(p) and lq = p2l.(q) in
            let before = inc_sum lp + inc_sum lq in
            swap_sites s p q;
            let after = inc_sum lp + inc_sum lq in
            let newly = -collect_ready (collect_ready 0 lp) lq in
            swap_sites s p q;
            let d = !total - before + after and b = max busy.(p) busy.(q) in
            (* lexicographic (distance, −newly, busy); first minimum wins *)
            if
              !best < 0
              || d < !best_d
              || d = !best_d
                 && (newly < !best_newly
                    || (newly = !best_newly && b < !best_busy))
            then begin
              best := c;
              best_d := d;
              best_newly := newly;
              best_busy := b
            end
          done;
          if !best_d < !total then !best else forced ()
        end
      in
      let p = code / n_phys and q = code mod n_phys in
      let lp = p2l.(p) and lq = p2l.(q) in
      let before = inc_sum lp + inc_sum lq in
      swap_sites s p q;
      total := !total - before + inc_sum lp + inc_sum lq;
      emitted := Gate.Swap (p, q) :: !emitted;
      occupy p q;
      incr swaps;
      incr stall;
      (* only the gates on the two moved qubits can have become ready *)
      n_ready := collect_ready (collect_ready 0 lp) lq
    end
  done;
  {
    circuit = Circuit.create n_phys (List.rev !emitted);
    initial_layout;
    final_layout = layout_of_sites initial_layout s;
    num_swaps = !swaps;
  }
