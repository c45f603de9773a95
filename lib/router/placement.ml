module Topology = Phoenix_topology.Topology
module Circuit = Phoenix_circuit.Circuit

let interaction_aware ?(seed_site = 0) topo ~n_logical ~weights =
  let n_phys = Topology.num_qubits topo in
  if n_logical > n_phys then
    invalid_arg "Placement.interaction_aware: device too small";
  let weight = Array.make_matrix n_logical n_logical 0 in
  List.iter
    (fun (a, b, count) ->
      weight.(a).(b) <- weight.(a).(b) + count;
      weight.(b).(a) <- weight.(b).(a) + count)
    weights;
  let degree l = Array.fold_left ( + ) 0 weight.(l) in
  let logical_order =
    List.sort
      (fun a b -> compare (degree b) (degree a))
      (List.init n_logical (fun i -> i))
  in
  let used = Array.make n_phys false in
  let l2p = Array.make n_logical (-1) in
  let physical_degree p = Array.length (Topology.neighbor_array topo p) in
  let best_site l =
    let placed_partners =
      List.filter
        (fun m -> weight.(l).(m) > 0 && l2p.(m) >= 0)
        (List.init n_logical (fun i -> i))
    in
    let score p =
      if used.(p) then Float.infinity
      else if placed_partners = [] then
        (* seed on well-connected sites; [seed_site] rotates the choice
           among them for multi-start searches *)
        -.float_of_int (physical_degree p)
        +. (0.01 *. float_of_int ((p + seed_site) mod n_phys))
      else
        float_of_int
          (List.fold_left
             (fun acc m ->
               acc + (weight.(l).(m) * Topology.distance topo p l2p.(m)))
             0 placed_partners)
    in
    let best = ref (-1) and best_score = ref Float.infinity in
    for p = 0 to n_phys - 1 do
      let s = score p in
      if s < !best_score then begin
        best := p;
        best_score := s
      end
    done;
    !best
  in
  List.iter
    (fun l ->
      let p = best_site l in
      l2p.(l) <- p;
      used.(p) <- true)
    logical_order;
  Layout.of_l2p ~n_physical:n_phys l2p

let of_circuit ?seed_site topo circuit =
  let counts = Circuit.interaction_counts circuit in
  let weights =
    Hashtbl.fold (fun (a, b) count acc -> (a, b, count) :: acc) counts []
  in
  interaction_aware ?seed_site topo ~n_logical:(Circuit.num_qubits circuit)
    ~weights
