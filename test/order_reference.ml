(* Reference implementation of the Tetris-like ordering cost (§IV-C):
   register-wide endian vectors (Fig. 3), exposed-Clifford cancellation
   (Fig. 4a), the Eq. 7 routing similarity from all-pairs BFS distance
   matrices, and the list-pool greedy loop.  It recomputes everything for
   both blocks on every candidate, so it is quadratic in the register
   width; [Phoenix.Order] scores candidates from per-block boundary
   summaries instead and must agree with this module bit for bit (see the
   differential properties in test_core.ml). *)

module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Clifford2q = Phoenix_pauli.Clifford2q
module Group = Phoenix.Group

type block = Phoenix.Order.block = {
  group : Group.t;
  circuit : Circuit.t;
}

(* Endian vectors of subcircuits (Fig. 3).  For a subcircuit layered into
   2Q layers, the left endian vector entry [e_l.(i)] is the number of
   layers one must traverse from the left before qubit [i] is acted upon;
   [e_r] is the mirror from the right.  A qubit the subcircuit never
   touches traverses every layer. *)
module Endian = struct
  let endian_of_layers n layers =
    let total = List.length layers in
    let e = Array.make n total in
    List.iteri
      (fun li layer ->
        let mark q = if e.(q) = total then e.(q) <- li in
        List.iter (fun g -> List.iter mark (Gate.qubits g)) layer)
      layers;
    e

  let left c = endian_of_layers (Circuit.num_qubits c) (Circuit.layers_2q c)

  let right c =
    endian_of_layers (Circuit.num_qubits c) (List.rev (Circuit.layers_2q c))

  let num_layers c = List.length (Circuit.layers_2q c)

  (* Scenario I of Fig. 3(b): every qubit immediately available on the
     succeeding side (e_l' = 0) is blocked on the preceding side (e_r > 0)
     and vice versa, so the interface layers cannot interleave.  Otherwise
     at least one layer is shared (Scenario II) and the elementwise sum is
     discounted by one per qubit, NumPy-style: SUM(e_r + e_l' - 1). *)
  let depth_cost ~e_r ~e_l' =
    if Array.length e_r <> Array.length e_l' then
      invalid_arg "Endian.depth_cost: size mismatch";
    let n = Array.length e_r in
    let blocked = ref true in
    let sum = ref 0 in
    for i = 0 to n - 1 do
      if e_l'.(i) = 0 && e_r.(i) = 0 then blocked := false;
      sum := !sum + e_r.(i) + e_l'.(i)
    done;
    if !blocked then !sum else !sum - n
end

(* Qubit interaction graphs and the routing-similarity factor of Eq. 7:
   [s = Σ_i ⟨D_i, D'_i⟩ / (‖D_i‖·‖D'_i‖)] over the BFS distance matrices
   of the tail (head) interaction graph of the preceding (succeeding)
   subcircuit.  Unreachable pairs get the matrix dimension; zero-norm rows
   are skipped; the result is clamped below by 0.05. *)
module Interaction = struct
  let adjacency n gates =
    let adj = Array.make_matrix n n false in
    let add g =
      match Gate.pair g with
      | Some (a, b) ->
        adj.(a).(b) <- true;
        adj.(b).(a) <- true
      | None -> ()
    in
    List.iter add gates;
    adj

  let distance_matrix adj =
    let n = Array.length adj in
    let dist = Array.make_matrix n n n in
    let queue = Queue.create () in
    for src = 0 to n - 1 do
      dist.(src).(src) <- 0;
      Queue.clear queue;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        for v = 0 to n - 1 do
          if adj.(u).(v) && dist.(src).(v) = n && v <> src then begin
            dist.(src).(v) <- dist.(src).(u) + 1;
            Queue.add v queue
          end
        done
      done
    done;
    dist

  let two_qubit_gates c = List.filter Gate.is_two_qubit (Circuit.gates c)

  let used_by_2q c =
    let n = Circuit.num_qubits c in
    let used = Array.make n false in
    List.iter
      (fun g -> List.iter (fun q -> used.(q) <- true) (Gate.qubits g))
      (two_qubit_gates c);
    used

  (* Accumulate gates until every 2Q-used qubit has appeared. *)
  let covering_prefix c gates =
    let needed = used_by_2q c in
    let remaining = ref (Array.fold_left (fun a u -> if u then a + 1 else a) 0 needed) in
    let rec take acc = function
      | [] -> List.rev acc
      | g :: rest ->
        if !remaining = 0 then List.rev acc
        else begin
          List.iter
            (fun q ->
              if needed.(q) then begin
                needed.(q) <- false;
                decr remaining
              end)
            (Gate.qubits g);
          take (g :: acc) rest
        end
    in
    take [] gates

  let head_part c = covering_prefix c (two_qubit_gates c)
  let tail_part c = covering_prefix c (List.rev (two_qubit_gates c))

  let row_dot a b =
    let acc = ref 0.0 in
    Array.iteri (fun i x -> acc := !acc +. (float_of_int x *. float_of_int b.(i))) a;
    !acc

  let row_norm a = sqrt (row_dot a a)

  let min_similarity = 0.05

  let similarity ~pre ~suc =
    let n = Circuit.num_qubits pre in
    if Circuit.num_qubits suc <> n then
      invalid_arg "Interaction.similarity: qubit-count mismatch";
    let d = distance_matrix (adjacency n (tail_part pre)) in
    let d' = distance_matrix (adjacency n (head_part suc)) in
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      let ni = row_norm d.(i) and ni' = row_norm d'.(i) in
      if ni > 0.0 && ni' > 0.0 then s := !s +. (row_dot d.(i) d'.(i) /. (ni *. ni'))
    done;
    Float.max !s min_similarity
end

let exposed_boundary_cliffords side circuit =
  let gates =
    match side with
    | `Leading -> Circuit.gates circuit
    | `Trailing -> List.rev (Circuit.gates circuit)
  in
  let n = Circuit.num_qubits circuit in
  let blocked = Array.make n false in
  let rec scan acc = function
    | [] -> acc
    | g :: rest ->
      let qs = Gate.qubits g in
      if List.exists (fun q -> blocked.(q)) qs then begin
        List.iter (fun q -> blocked.(q) <- true) qs;
        scan acc rest
      end
      else begin
        List.iter (fun q -> blocked.(q) <- true) qs;
        match g with
        | Gate.Cliff2 c -> scan (c :: acc) rest
        | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _ | Gate.Su4 _ ->
          scan acc rest
      end
  in
  List.rev (scan [] gates)

(* Canonical key so that gates cancelling under [Clifford2q.equal_gate]
   collide. *)
let cliff_key (c : Clifford2q.t) =
  if Clifford2q.is_symmetric c.Clifford2q.kind then
    c.Clifford2q.kind, min c.a c.b, max c.a c.b
  else c.Clifford2q.kind, c.a, c.b

let key_counts cliffs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let k = cliff_key c in
      Hashtbl.replace table k (1 + Option.value ~default:0 (Hashtbl.find_opt table k)))
    cliffs;
  table

(* Number of Hermitian Clifford2Q pairs cancelling across the interface,
   plus whether cancellation empties the boundary 2Q layer on each side. *)
let cancellation prev next =
  let trailing = exposed_boundary_cliffords `Trailing prev.circuit in
  let leading = exposed_boundary_cliffords `Leading next.circuit in
  let ct = key_counts trailing and cl = key_counts leading in
  let matched_keys = ref [] in
  let m =
    Hashtbl.fold
      (fun k count acc ->
        match Hashtbl.find_opt cl k with
        | Some count' ->
          matched_keys := k :: !matched_keys;
          acc + min count count'
        | None -> acc)
      ct 0
  in
  let layer_all_matched layers pick =
    match pick layers with
    | Some layer ->
      layer <> []
      && List.for_all
           (fun g ->
             match g with
             | Gate.Cliff2 c -> List.mem (cliff_key c) !matched_keys
             | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _
             | Gate.Su4 _ ->
               false)
           layer
    | None -> false
  in
  let last l = match List.rev l with x :: _ -> Some x | [] -> None in
  let first l = match l with x :: _ -> Some x | [] -> None in
  let prev_side = m > 0 && layer_all_matched (Circuit.layers_2q prev.circuit) last in
  let next_side = m > 0 && layer_all_matched (Circuit.layers_2q next.circuit) first in
  m, prev_side, next_side

let support_size c = List.length (Circuit.used_qubits c)

let assembly_cost ?(routing_aware = false) prev next =
  let e_r = Endian.right prev.circuit and e_l' = Endian.left next.circuit in
  let base = float_of_int (Endian.depth_cost ~e_r ~e_l') in
  let m, prev_side, next_side = cancellation prev next in
  let layer_saving side circ = if side then float_of_int (support_size circ) else 0.0 in
  let cost =
    base
    -. (2.0 *. float_of_int m)
    -. layer_saving prev_side prev.circuit
    -. layer_saving next_side next.circuit
  in
  if routing_aware then
    cost /. Interaction.similarity ~pre:prev.circuit ~suc:next.circuit
  else cost

let order ?(lookahead = 10) ?(routing_aware = false) blocks =
  match blocks with
  | [] | [ _ ] -> blocks
  | _ ->
    (* Pre-arrange in descending width; stable for equal widths. *)
    let pool =
      List.stable_sort
        (fun a b -> compare (Group.weight b.group) (Group.weight a.group))
        blocks
    in
    let rec assemble acc last pool =
      match pool with
      | [] -> List.rev acc
      | _ ->
        let window = List.filteri (fun i _ -> i < lookahead) pool in
        let best, _ =
          List.fold_left
            (fun (best, best_cost) cand ->
              let cost = assembly_cost ~routing_aware last cand in
              match best with
              | Some _ when best_cost <= cost -> best, best_cost
              | Some _ | None -> Some cand, cost)
            (None, Float.infinity) window
        in
        let chosen = match best with Some b -> b | None -> assert false in
        let pool' = List.filter (fun b -> b != chosen) pool in
        assemble (chosen :: acc) chosen pool'
    in
    (match pool with
    | first :: rest -> assemble [ first ] first rest
    | [] -> assert false)
