module Topology = Phoenix_topology.Topology
module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate

(* Greedy embedding over a flat row-stride [n_logical²] weight matrix. *)
let place ~seed_site topo ~n_logical weight =
  let n_phys = Topology.num_qubits topo in
  let dist = Topology.distances topo in
  let degree =
    Array.init n_logical (fun l ->
        let d = ref 0 in
        for m = 0 to n_logical - 1 do
          d := !d + weight.((l * n_logical) + m)
        done;
        !d)
  in
  let logical_order = Array.init n_logical Fun.id in
  Array.stable_sort (fun a b -> compare degree.(b) degree.(a)) logical_order;
  let used = Array.make n_phys false in
  let l2p = Array.make n_logical (-1) in
  let partners = Array.make (max 1 n_logical) 0 in
  Array.iter
    (fun l ->
      let row = l * n_logical in
      let n_partners = ref 0 in
      for m = 0 to n_logical - 1 do
        if weight.(row + m) > 0 && l2p.(m) >= 0 then begin
          partners.(!n_partners) <- m;
          incr n_partners
        end
      done;
      let best = ref (-1) and best_score = ref Float.infinity in
      for p = 0 to n_phys - 1 do
        let score =
          if used.(p) then Float.infinity
          else if !n_partners = 0 then
            (* seed on well-connected sites; [seed_site] rotates the choice
               among them for multi-start searches *)
            -.float_of_int (Array.length (Topology.neighbor_array topo p))
            +. (0.01 *. float_of_int ((p + seed_site) mod n_phys))
          else begin
            let acc = ref 0 in
            for j = 0 to !n_partners - 1 do
              let m = partners.(j) in
              acc := !acc + (weight.(row + m) * dist.((p * n_phys) + l2p.(m)))
            done;
            float_of_int !acc
          end
        in
        if score < !best_score then begin
          best := p;
          best_score := score
        end
      done;
      l2p.(l) <- !best;
      used.(!best) <- true)
    logical_order;
  Layout.of_l2p ~n_physical:n_phys l2p

let check_size topo n_logical =
  if n_logical > Topology.num_qubits topo then
    invalid_arg "Placement.interaction_aware: device too small"

let interaction_aware ?(seed_site = 0) topo ~n_logical ~weights =
  check_size topo n_logical;
  let weight = Array.make (n_logical * n_logical) 0 in
  List.iter
    (fun (a, b, count) ->
      weight.((a * n_logical) + b) <- weight.((a * n_logical) + b) + count;
      weight.((b * n_logical) + a) <- weight.((b * n_logical) + a) + count)
    weights;
  place ~seed_site topo ~n_logical weight

let of_circuit ?(seed_site = 0) topo circuit =
  let n_logical = Circuit.num_qubits circuit in
  check_size topo n_logical;
  let weight = Array.make (n_logical * n_logical) 0 in
  List.iter
    (fun g ->
      let a = Gate.first_qubit g and b = Gate.second_qubit g in
      if b >= 0 then begin
        weight.((a * n_logical) + b) <- weight.((a * n_logical) + b) + 1;
        weight.((b * n_logical) + a) <- weight.((b * n_logical) + a) + 1
      end)
    (Circuit.gates circuit);
  place ~seed_site topo ~n_logical weight
