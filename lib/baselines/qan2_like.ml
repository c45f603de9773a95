module Pauli_string = Phoenix_pauli.Pauli_string
module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Lowering = Phoenix_circuit.Lowering
module Topology = Phoenix_topology.Topology
module Layout = Phoenix_router.Layout
module Pass = Phoenix.Pass
module Passes = Phoenix.Passes

type interaction = { a : int; b : int; gate : Gate.t }

let to_gate n (p, theta) =
  ignore n;
  match Pauli_string.support_list p with
  | [] -> None
  | [ q ] -> Some (`One (Gate.rotation_of_pauli (Pauli_string.get p q) q theta))
  | [ a; b ] ->
    Some
      (`Two
        {
          a;
          b;
          gate =
            Gate.Rpp
              {
                p0 = Pauli_string.get p a;
                p1 = Pauli_string.get p b;
                a;
                b;
                theta;
              };
        })
  | _ :: _ :: _ :: _ -> invalid_arg "Qan2_like: gadget of weight > 2"

(* Interaction-weighted greedy embedding: logical qubits in descending
   interaction degree; each placed on the free physical qubit minimizing
   distance to already-placed partners (highest-degree physical site
   seeds the embedding). *)
let place topo n gadgets =
  let weight = Array.make_matrix n n 0 in
  List.iter
    (fun (p, _) ->
      match Pauli_string.support_list p with
      | [ a; b ] ->
        weight.(a).(b) <- weight.(a).(b) + 1;
        weight.(b).(a) <- weight.(b).(a) + 1
      | _ -> ())
    gadgets;
  let degree l = Array.fold_left ( + ) 0 weight.(l) in
  let logical_order =
    List.sort
      (fun a b -> compare (degree b) (degree a))
      (List.init n (fun i -> i))
  in
  let n_phys = Topology.num_qubits topo in
  let used = Array.make n_phys false in
  let l2p = Array.make n (-1) in
  let physical_degree p = List.length (Topology.neighbors topo p) in
  let best_site l =
    let placed_partners =
      List.filter_map
        (fun m -> if weight.(l).(m) > 0 && l2p.(m) >= 0 then Some m else None)
        (List.init n (fun i -> i))
    in
    let score p =
      if used.(p) then Float.infinity
      else if placed_partners = [] then
        (* seed: prefer central, well-connected sites *)
        -.float_of_int (physical_degree p)
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

let topology_of_ctx ctx =
  match ctx.Pass.options.Pass.target with
  | Pass.Hardware topo -> topo
  | Pass.Logical -> invalid_arg "Qan2_like: needs a hardware target"

let place_pass =
  Pass.make ~certify:Phoenix.Passes.certify_unchanged ~name:"place"
    ~description:"interaction-weighted greedy initial embedding"
    (fun ctx ->
      let topo = topology_of_ctx ctx in
      let n = ctx.Pass.n in
      if n > Topology.num_qubits topo then
        invalid_arg "Qan2_like.place: device too small";
      { ctx with Pass.layout = Some (place topo n ctx.Pass.gadgets) })

(* The 2QAN scheduling loop: alternate between emitting every
   currently-executable interaction and inserting the SWAP that most
   reduces the remaining interaction distance.  Interactions commute, so
   the emission order is free. *)
let route_pass =
  Pass.make ~certify:Phoenix.Passes.certify_routing ~name:"route"
    ~description:
      "greedy commuting-interaction scheduling: emit executable \
       interactions, insert distance-reducing SWAPs"
    (fun ctx ->
      let topo = topology_of_ctx ctx in
      let n = ctx.Pass.n in
      let n_phys = Topology.num_qubits topo in
      (* a pending interaction across two components could never
         execute, and the loop below would never end *)
      if not (Topology.is_connected topo) then
        invalid_arg
          (Printf.sprintf
             "Qan2_like.route: the %d-qubit coupling graph is disconnected \
              — routing cannot reach every qubit"
             n_phys);
      let initial_layout =
        match ctx.Pass.layout with Some l -> l | None -> place topo n ctx.Pass.gadgets
      in
      let ones, twos =
        List.fold_left
          (fun (ones, twos) gadget ->
            match to_gate n gadget with
            | None -> ones, twos
            | Some (`One g) -> g :: ones, twos
            | Some (`Two i) -> ones, i :: twos)
          ([], []) ctx.Pass.gadgets
      in
      let layout = ref initial_layout in
      let emitted = ref (List.rev ones) (* 1Q gates are free: place them first *)
      and swaps = ref 0 in
      let emitted_phys g = Gate.map_qubits (Layout.physical_of !layout) g in
      (* 1Q rotations are emitted at their logical qubit's initial site. *)
      emitted := List.map emitted_phys !emitted |> List.rev;
      let pending = ref twos in
      let dist i =
        Topology.distance topo
          (Layout.physical_of !layout i.a)
          (Layout.physical_of !layout i.b)
      in
      let emit_executable () =
        let rec go progressed =
          let exec, rest = List.partition (fun i -> dist i = 1) !pending in
          if exec = [] then progressed
          else begin
            List.iter (fun i -> emitted := emitted_phys i.gate :: !emitted) exec;
            pending := rest;
            go true
          end
        in
        go false
      in
      let total_distance () =
        List.fold_left (fun acc i -> acc + dist i) 0 !pending
      in
      while !pending <> [] do
        Phoenix_util.Budget.checkpoint ();
        ignore (emit_executable ());
        if !pending <> [] then begin
          (* candidate swaps: edges touching any pending interaction qubit *)
          let frontier =
            List.concat_map
              (fun i ->
                [ Layout.physical_of !layout i.a; Layout.physical_of !layout i.b ])
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
            let newly_exec =
              List.fold_left (fun acc i -> if dist i = 1 then acc + 1 else acc) 0 !pending
            in
            layout := saved;
            (float_of_int d, -.float_of_int newly_exec)
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
          let (p, q), (best_d, _) =
            match best with Some (c, s) -> c, s | None -> assert false
          in
          (* Guaranteed progress: if no candidate reduces total distance,
             step the first pending interaction along a shortest path. *)
          let p, q =
            if best_d < float_of_int baseline then p, q
            else begin
              match !pending with
              | i :: _ ->
                let pa = Layout.physical_of !layout i.a
                and pb = Layout.physical_of !layout i.b in
                let closer =
                  List.find_opt
                    (fun nb ->
                      Topology.distance topo nb pb < Topology.distance topo pa pb)
                    (Topology.neighbors topo pa)
                in
                (match closer with
                | Some nb -> min pa nb, max pa nb
                | None -> p, q)
              | [] -> assert false
            end
          in
          layout := Layout.swap_physical !layout p q;
          emitted := Gate.Swap (p, q) :: !emitted;
          incr swaps
        end
      done;
      {
        ctx with
        Pass.circuit = Circuit.create n_phys (List.rev !emitted);
        Pass.num_swaps = !swaps;
        Pass.layout = Some initial_layout;
      })

let lower_pass =
  Pass.make ~certify:Phoenix.Passes.certify_preserving ~name:"lower"
    ~description:"expand SWAPs and rebase to the CNOT basis"
    (fun ctx ->
      {
        ctx with
        Pass.circuit = Lowering.run [ Lowering.Rebase ] ctx.Pass.circuit;
      })

let passes = [ place_pass; route_pass; lower_pass; Passes.peephole ]
