(* Exact minimum-SWAP routing, after the constraint-based compilation of
   Murali et al.: the fewest SWAPs that execute a circuit from a fixed
   initial layout while respecting per-qubit gate order.  A breadth-first
   search over (physical-to-logical map, executed set) states; each edge
   is one SWAP on a coupling edge, empty sites included.  A test oracle
   for small devices (≤ 6–8 qubits, ≤ 8 two-qubit gates), never a
   production path.

   Before a state is expanded it executes every ready gate whose qubits
   are adjacent.  Executing never moves a qubit, so this closure keeps
   the answer exact.  1Q gates are dropped up front: one executes as
   soon as it is ready, so it never costs a SWAP. *)

module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Layout = Phoenix_router.Layout

let min_swaps topo ~initial circ =
  let n_phys = Topology.num_qubits topo in
  let pairs =
    Array.of_list (List.filter_map Gate.pair (Circuit.gates circ))
  in
  let m = Array.length pairs in
  if m > 16 then invalid_arg "Exact_router.min_swaps: at most 16 2Q gates";
  (* [pred.(i)]: the earlier gates sharing a qubit with gate [i] *)
  let pred =
    Array.init m (fun i ->
        let a, b = pairs.(i) in
        let mask = ref 0 in
        for j = 0 to i - 1 do
          let c, d = pairs.(j) in
          if a = c || a = d || b = c || b = d then mask := !mask lor (1 lsl j)
        done;
        !mask)
  in
  let all = (1 lsl m) - 1 in
  let close l2p mask =
    let rec go mask =
      let next = ref mask in
      for i = 0 to m - 1 do
        let a, b = pairs.(i) in
        if
          !next land (1 lsl i) = 0
          && pred.(i) land !next = pred.(i)
          && Topology.distance topo l2p.(a) l2p.(b) = 1
        then next := !next lor (1 lsl i)
      done;
      if !next = mask then mask else go !next
    in
    go mask
  in
  let key p2l mask =
    Array.fold_left (fun acc l -> (acc * (n_phys + 1)) + l + 1) mask p2l
  in
  let l2p0 = Layout.to_l2p initial in
  let p2l0 = Array.make n_phys (-1) in
  Array.iteri (fun l p -> p2l0.(p) <- l) l2p0;
  let mask0 = close l2p0 0 in
  if mask0 = all then 0
  else begin
    let seen = Hashtbl.create 1024 in
    Hashtbl.replace seen (key p2l0 mask0) ();
    let edges = Topology.edges topo in
    (* level-synchronous BFS: [frontier] holds the states [depth] SWAPs away *)
    let rec level depth frontier =
      if frontier = [] then invalid_arg "Exact_router.min_swaps: unroutable"
      else begin
        let found = ref false and next = ref [] in
        List.iter
          (fun (p2l, mask) ->
            List.iter
              (fun (u, v) ->
                if (not !found) && (p2l.(u) >= 0 || p2l.(v) >= 0) then begin
                  let p2l' = Array.copy p2l in
                  p2l'.(u) <- p2l.(v);
                  p2l'.(v) <- p2l.(u);
                  let l2p = Array.copy l2p0 in
                  Array.iteri (fun p l -> if l >= 0 then l2p.(l) <- p) p2l';
                  let mask' = close l2p mask in
                  if mask' = all then found := true
                  else begin
                    let k = key p2l' mask' in
                    if not (Hashtbl.mem seen k) then begin
                      Hashtbl.replace seen k ();
                      next := (p2l', mask') :: !next
                    end
                  end
                end)
              edges)
          frontier;
        if !found then depth + 1 else level (depth + 1) !next
      end
    in
    level 0 [ (p2l0, mask0) ]
  end
