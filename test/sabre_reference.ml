(* Reference router: the list-based SABRE and commuting routers that
   [Phoenix_router.Sabre] replaced, kept verbatim below the two module
   aliases.  It copies the layout for every candidate it scores and
   rebuilds its queue heads from lists on every drain; the array router
   must reproduce it bit for bit (same SWAP sequences, layouts and
   circuits — see the differential properties in test_router.ml).  The
   bridge template ([use_bridge]) survives only here. *)

module Layout = Phoenix_router.Layout
module Placement = Phoenix_router.Placement

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

(* Mutable routing state.  Dependencies are the per-qubit program order:
   a gate is ready when it heads the pending queue of each of its qubits. *)
type state = {
  gates : Gate.t array;
  queues : int list array; (* per logical qubit, pending gate indices *)
  done_arr : bool array;
  mutable low : int; (* all gates below this index are done *)
  mutable remaining : int;
  mutable layout : Layout.t;
  mutable emitted : Gate.t list; (* reversed *)
  mutable swaps : int;
  decay_arr : float array; (* per physical qubit *)
}

let queue_heads st =
  Array.to_seq st.queues
  |> Seq.filter_map (function i :: _ -> Some i | [] -> None)
  |> List.of_seq |> List.sort_uniq compare

let is_ready st i =
  List.for_all
    (fun q -> match st.queues.(q) with j :: _ -> j = i | [] -> false)
    (Gate.qubits st.gates.(i))

let pop_gate st i =
  List.iter
    (fun q ->
      match st.queues.(q) with
      | j :: rest when j = i -> st.queues.(q) <- rest
      | _ -> assert false)
    (Gate.qubits st.gates.(i));
  st.done_arr.(i) <- true;
  while st.low < Array.length st.gates && st.done_arr.(st.low) do
    st.low <- st.low + 1
  done;
  st.remaining <- st.remaining - 1

(* Remap a logical gate to physical qubits under the current layout. *)
let emit_mapped st g =
  let f q = Layout.physical_of st.layout q in
  let rec go = function
    | Gate.G1 (k, q) -> Gate.G1 (k, f q)
    | Gate.Cnot (a, b) -> Gate.Cnot (f a, f b)
    | Gate.Cliff2 c ->
      Gate.Cliff2 { c with Phoenix_pauli.Clifford2q.a = f c.a; b = f c.b }
    | Gate.Rpp r -> Gate.Rpp { r with a = f r.a; b = f r.b }
    | Gate.Swap (a, b) -> Gate.Swap (f a, f b)
    | Gate.Su4 { a; b; parts } ->
      Gate.Su4 { a = f a; b = f b; parts = List.map go parts }
  in
  st.emitted <- go g :: st.emitted

let executable st topo i =
  match Gate.qubits st.gates.(i) with
  | [ _ ] -> true
  | [ a; b ] ->
    Topology.are_adjacent topo
      (Layout.physical_of st.layout a)
      (Layout.physical_of st.layout b)
  | _ -> assert false

(* Drain every ready gate that can execute under the current layout. *)
let rec drain st topo =
  let progressed = ref false in
  List.iter
    (fun i ->
      if is_ready st i && executable st topo i then begin
        emit_mapped st st.gates.(i);
        pop_gate st i;
        progressed := true
      end)
    (queue_heads st);
  if !progressed && st.remaining > 0 then drain st topo

let front_layer st topo =
  List.filter
    (fun i ->
      is_ready st i
      && Gate.is_two_qubit st.gates.(i)
      && not (executable st topo i))
    (queue_heads st)

(* The next pending 2Q gates in program order (beyond the front), for the
   lookahead term; scanning starts at the first unfinished gate. *)
let extended_set st front k =
  let n = Array.length st.gates in
  let rec scan i acc count =
    if i >= n || count >= k then acc
    else if
      (not st.done_arr.(i))
      && Gate.is_two_qubit st.gates.(i)
      && not (List.mem i front)
    then scan (i + 1) (i :: acc) (count + 1)
    else scan (i + 1) acc count
  in
  scan st.low [] 0

let gate_distance st topo i =
  match Gate.qubits st.gates.(i) with
  | [ a; b ] ->
    Topology.distance topo
      (Layout.physical_of st.layout a)
      (Layout.physical_of st.layout b)
  | _ -> 0

(* One step along a shortest path for the first front gate: guaranteed
   progress when the scoring heuristic cycles. *)
let forced_swap st topo front =
  match Gate.qubits st.gates.(List.hd front) with
  | [ a; b ] ->
    let pa = Layout.physical_of st.layout a
    and pb = Layout.physical_of st.layout b in
    let closer =
      List.find_opt
        (fun nb -> Topology.distance topo nb pb < Topology.distance topo pa pb)
        (Topology.neighbors topo pa)
    in
    (match closer with
    | Some nb -> min pa nb, max pa nb
    | None -> assert false (* connected topology: some neighbor is closer *))
  | _ -> assert false

(* Bridge template: CNOT(a,c) over middle qubit m without moving anyone:
   time order [CNOT(a,m); CNOT(m,c); CNOT(a,m); CNOT(m,c)]. *)
let bridge_gates a m c =
  [ Gate.Cnot (a, m); Gate.Cnot (m, c); Gate.Cnot (a, m); Gate.Cnot (m, c) ]

(* A front CNOT at distance exactly 2 whose qubits no upcoming gate needs
   is cheaper to bridge (4 CNOTs, no layout change) than to route. *)
let try_bridges st topo front ext =
  let ext_touches q =
    List.exists
      (fun i -> List.mem q (Gate.qubits st.gates.(i)))
      ext
  in
  let bridged = ref false in
  List.iter
    (fun i ->
      match st.gates.(i) with
      | Gate.Cnot (a, b)
        when gate_distance st topo i = 2
             && (not (ext_touches a))
             && not (ext_touches b) ->
        let pa = Layout.physical_of st.layout a
        and pb = Layout.physical_of st.layout b in
        let middle =
          List.find_opt
            (fun m -> Topology.are_adjacent topo m pb)
            (Topology.neighbors topo pa)
        in
        (match middle with
        | Some m ->
          List.iter
            (fun g -> st.emitted <- g :: st.emitted)
            (bridge_gates pa m pb);
          pop_gate st i;
          bridged := true
        | None -> ())
      | _ -> ())
    front;
  !bridged

let route ?initial ?(lookahead = 20) ?(decay = 0.001) ?(seed = 7)
    ?(use_bridge = false) topo circ =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  if n_log > n_phys then
    invalid_arg
      (Printf.sprintf
         "Sabre.route: circuit needs %d logical qubits but the device has \
          only %d"
         n_log n_phys);
  if not (Topology.is_connected topo) then
    invalid_arg
      (Printf.sprintf
         "Sabre.route: the %d-qubit coupling graph is disconnected — routing \
          cannot reach every qubit"
         n_phys);
  let initial_layout =
    match initial with
    | Some l -> l
    | None -> Layout.trivial ~n_logical:n_log ~n_physical:n_phys
  in
  let gates = Circuit.gate_array circ in
  let queues = Array.make n_log [] in
  Array.iteri
    (fun i g -> List.iter (fun q -> queues.(q) <- i :: queues.(q)) (Gate.qubits g))
    gates;
  Array.iteri (fun q l -> queues.(q) <- List.rev l) queues;
  let st =
    {
      gates;
      queues;
      done_arr = Array.make (max 1 (Array.length gates)) false;
      low = 0;
      remaining = Array.length gates;
      layout = initial_layout;
      emitted = [];
      swaps = 0;
      decay_arr = Array.make n_phys 1.0;
    }
  in
  let rng = Prng.create seed in
  let stall = ref 0 in
  while st.remaining > 0 do
    (* Cooperative cancellation point: routing has no cheaper fallback
       rung, so an expired budget propagates out of the pass. *)
    Phoenix_util.Budget.checkpoint ();
    drain st topo;
    if st.remaining > 0 then begin
      let front = front_layer st topo in
      assert (front <> []);
      let bridged =
        use_bridge
        && try_bridges st topo front (extended_set st front lookahead)
      in
      if not bridged then begin
      let p, q =
        if !stall > 2 * n_phys then forced_swap st topo front
        else begin
          let front_phys =
            List.concat_map
              (fun i ->
                List.map
                  (fun lq -> Layout.physical_of st.layout lq)
                  (Gate.qubits st.gates.(i)))
              front
            |> List.sort_uniq compare
          in
          let candidates =
            List.concat_map
              (fun p ->
                List.map (fun q -> min p q, max p q) (Topology.neighbors topo p))
              front_phys
            |> List.sort_uniq compare
          in
          let ext = extended_set st front lookahead in
          let score (p, q) =
            let saved = st.layout in
            st.layout <- Layout.swap_physical st.layout p q;
            let front_cost =
              List.fold_left (fun acc i -> acc + gate_distance st topo i) 0 front
            in
            let ext_cost =
              if ext = [] then 0.0
              else
                float_of_int
                  (List.fold_left
                     (fun acc i -> acc + gate_distance st topo i)
                     0 ext)
                /. float_of_int (List.length ext)
            in
            st.layout <- saved;
            let decay_factor = Float.max st.decay_arr.(p) st.decay_arr.(q) in
            decay_factor *. (float_of_int front_cost +. (0.5 *. ext_cost))
            +. (1e-9 *. Prng.float rng 1.0)
          in
          let best =
            List.fold_left
              (fun best cand ->
                let s = score cand in
                match best with
                | Some (_, bs) when bs <= s -> best
                | Some _ | None -> Some (cand, s))
              None candidates
          in
          match best with Some (c, _) -> c | None -> assert false
        end
      in
      st.layout <- Layout.swap_physical st.layout p q;
      st.emitted <- Gate.Swap (p, q) :: st.emitted;
      st.swaps <- st.swaps + 1;
      st.decay_arr.(p) <- st.decay_arr.(p) +. decay;
      st.decay_arr.(q) <- st.decay_arr.(q) +. decay;
      if st.swaps mod (5 * n_phys) = 0 then Array.fill st.decay_arr 0 n_phys 1.0;
      let before = st.remaining in
      drain st topo;
      if st.remaining < before then stall := 0 else incr stall
      end
    end
  done;
  {
    circuit = Circuit.create n_phys (List.rev st.emitted);
    initial_layout;
    final_layout = st.layout;
    num_swaps = st.swaps;
  }

let route_with_refinement ?initial ?(iterations = 1) ?lookahead ?seed
    ?use_bridge topo circ =
  let reversed =
    Circuit.create (Circuit.num_qubits circ) (List.rev (Circuit.gates circ))
  in
  let rec refine layout k =
    if k = 0 then layout
    else begin
      let fwd = route ~initial:layout ?lookahead ?seed ?use_bridge topo circ in
      let bwd =
        route ~initial:fwd.final_layout ?lookahead ?seed ?use_bridge topo
          reversed
      in
      refine bwd.final_layout (k - 1)
    end
  in
  let seed_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  let refined = refine seed_layout iterations in
  (* Keep the better of the refined and the seed layout. *)
  let r1 = route ~initial:refined ?lookahead ?seed ?use_bridge topo circ in
  let r0 = route ~initial:seed_layout ?lookahead ?seed ?use_bridge topo circ in
  if r0.num_swaps <= r1.num_swaps then r0 else r1

(* Free-order routing for mutually commuting gate sets: every pending 2Q
   gate is permanently "ready"; each step executes all adjacent ones and
   otherwise inserts the SWAP minimizing the total pending distance
   (newly-executable count breaking ties), with a shortest-path step as a
   guaranteed-progress fallback. *)
let route_commuting ?initial topo circ =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  if n_log > n_phys then
    invalid_arg
      (Printf.sprintf
         "Sabre.route_commuting: circuit needs %d logical qubits but the \
          device has only %d"
         n_log n_phys);
  let initial_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  let layout = ref initial_layout in
  let remap g =
    let f q = Layout.physical_of !layout q in
    let rec go = function
      | Gate.G1 (k, q) -> Gate.G1 (k, f q)
      | Gate.Cnot (a, b) -> Gate.Cnot (f a, f b)
      | Gate.Cliff2 c ->
        Gate.Cliff2 { c with Phoenix_pauli.Clifford2q.a = f c.a; b = f c.b }
      | Gate.Rpp r -> Gate.Rpp { r with a = f r.a; b = f r.b }
      | Gate.Swap (a, b) -> Gate.Swap (f a, f b)
      | Gate.Su4 { a; b; parts } ->
        Gate.Su4 { a = f a; b = f b; parts = List.map go parts }
    in
    go g
  in
  let ones, pending0 =
    List.partition (fun g -> not (Gate.is_two_qubit g)) (Circuit.gates circ)
  in
  (* 1Q gates commute with everything here: emit them first. *)
  let emitted = ref (List.rev_map remap ones) in
  let pending = ref pending0 in
  let swaps = ref 0 in
  (* ASAP busy layers per physical qubit, to steer SWAPs toward idle
     regions (depth awareness). *)
  let busy = Array.make n_phys 0 in
  let occupy p q =
    let layer = 1 + max busy.(p) busy.(q) in
    busy.(p) <- layer;
    busy.(q) <- layer
  in
  let dist g =
    match Gate.qubits g with
    | [ a; b ] ->
      Topology.distance topo
        (Layout.physical_of !layout a)
        (Layout.physical_of !layout b)
    | _ -> 0
  in
  let emit_executable () =
    let rec go () =
      let exec, rest = List.partition (fun g -> dist g = 1) !pending in
      if exec <> [] then begin
        List.iter
          (fun g ->
            (match Gate.qubits g with
            | [ a; b ] ->
              occupy (Layout.physical_of !layout a) (Layout.physical_of !layout b)
            | _ -> ());
            emitted := remap g :: !emitted)
          exec;
        pending := rest;
        go ()
      end
    in
    go ()
  in
  let total_distance () =
    List.fold_left (fun acc g -> acc + dist g) 0 !pending
  in
  while !pending <> [] do
    Phoenix_util.Budget.checkpoint ();
    emit_executable ();
    if !pending <> [] then begin
      let frontier =
        List.concat_map
          (fun g ->
            List.map (fun q -> Layout.physical_of !layout q) (Gate.qubits g))
          !pending
        |> List.sort_uniq compare
      in
      let candidates =
        List.concat_map
          (fun p ->
            List.map (fun q -> min p q, max p q) (Topology.neighbors topo p))
          frontier
        |> List.sort_uniq compare
      in
      let baseline = total_distance () in
      let score (p, q) =
        let saved = !layout in
        layout := Layout.swap_physical !layout p q;
        let d = total_distance () in
        let newly =
          List.fold_left (fun acc g -> if dist g = 1 then acc + 1 else acc) 0 !pending
        in
        layout := saved;
        ( float_of_int d,
          -.float_of_int newly,
          float_of_int (max busy.(p) busy.(q)) )
      in
      let best =
        List.fold_left
          (fun best cand ->
            let s = score cand in
            match best with
            | Some (_, bs) when bs <= s -> best
            | Some _ | None -> Some (cand, s))
          None candidates
      in
      let (p, q), (best_d, _, _) =
        match best with Some (c, s) -> c, s | None -> assert false
      in
      let p, q =
        if best_d < float_of_int baseline then p, q
        else begin
          match !pending with
          | g :: _ ->
            (match Gate.qubits g with
            | [ a; b ] ->
              let pa = Layout.physical_of !layout a
              and pb = Layout.physical_of !layout b in
              let closer =
                List.find_opt
                  (fun nb ->
                    Topology.distance topo nb pb < Topology.distance topo pa pb)
                  (Topology.neighbors topo pa)
              in
              (match closer with
              | Some nb -> min pa nb, max pa nb
              | None -> p, q)
            | _ -> p, q)
          | [] -> assert false
        end
      in
      layout := Layout.swap_physical !layout p q;
      emitted := Gate.Swap (p, q) :: !emitted;
      occupy p q;
      incr swaps
    end
  done;
  {
    circuit = Circuit.create n_phys (List.rev !emitted);
    initial_layout;
    final_layout = !layout;
    num_swaps = !swaps;
  }
