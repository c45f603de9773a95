module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Clifford2q = Phoenix_pauli.Clifford2q

type block = { group : Group.t; circuit : Circuit.t }

(* --- boundary summaries ------------------------------------------------ *)

(* One row of an Eq. 7 distance matrix: the BFS distances from [qubit] to
   the qubits it reaches (itself included, ascending), and the row's sum
   and Euclidean norm over the whole register, where an unreachable qubit
   counts distance n.  Sums are exact integers, so [norm] is bit for bit
   the float norm of the dense row. *)
type row = { qubit : int; reach : (int * int) list; sum : int; norm : float }

type key = Clifford2q.kind * int * int

(* Everything the assembly cost reads of a block, computed once from its
   gate list.  Nothing here is register-wide: per-qubit data exists only
   for the qubits the block touches. *)
type summary = {
  n : int;
  layers : int;  (* L, the number of ASAP 2Q layers *)
  sum_left : int;  (* Σ e_l over the register (Fig. 3) *)
  sum_right : int;  (* Σ e_r *)
  first_qubits : int list;
      (* ascending qubits of the first 2Q layer: where e_l = 0 (empty
         when L = 0, where e_l = 0 on every qubit) *)
  last_qubits : int list;  (* mirror: where e_r = 0 *)
  leading : key list;  (* ascending keys of exposed leading Clifford2Q gates *)
  trailing : key list;
  first_keys : key list option;
      (* ascending keys of the first 2Q layer, when all of it is Clifford2Q *)
  last_keys : key list option;
  support : int;  (* qubits touched by any gate *)
  eq7 : (row array * row array) option;
      (* head and tail rows, one per 2Q qubit in ascending order;
         routing-aware summaries only *)
}

(* Canonical key so that gates cancelling under [Clifford2q.equal_gate]
   collide. *)
let cliff_key (c : Clifford2q.t) =
  if Clifford2q.is_symmetric c.Clifford2q.kind then
    c.Clifford2q.kind, min c.a c.b, max c.a c.b
  else c.Clifford2q.kind, c.a, c.b

(* Register-wide scratch, allocated once per [order] call.  [seen] holds
   generation stamps, so a fresh scan costs one increment of [gen];
   [busy] (the qubit's latest 2Q layer, 0 while untouched) is reset
   through the touched qubits after each block; [first] and [local] are
   read only where [busy] is set. *)
type scratch = {
  mutable gen : int;
  seen : int array;
  busy : int array;
  first : int array;  (* first 2Q layer *)
  local : int array;  (* rank among the block's 2Q qubits *)
}

let scratch n =
  {
    gen = 0;
    seen = Array.make n 0;
    busy = Array.make n 0;
    first = Array.make n 0;
    local = Array.make n 0;
  }

let fresh_scan sc =
  sc.gen <- sc.gen + 1;
  sc.gen

(* Eq. 7 rows of the minimal run of [two_q] gates (head or tail order)
   that touches every 2Q qubit of the block. *)
let eq7_rows sc n qubits two_q =
  let t = Array.length qubits in
  let adj = Array.make t [] in
  let gen = fresh_scan sc in
  let rec take remaining = function
    | g :: rest when remaining > 0 ->
      let remaining =
        List.fold_left
          (fun r q ->
            if sc.seen.(q) = gen then r
            else begin
              sc.seen.(q) <- gen;
              r - 1
            end)
          remaining (Gate.qubits g)
      in
      (match Gate.pair g with
      | Some (a, b) ->
        let a = sc.local.(a) and b = sc.local.(b) in
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      | None -> ());
      take remaining rest
    | _ -> ()
  in
  take t two_q;
  let dist = Array.make t (-1) and queue = Array.make t 0 in
  Array.init t (fun src ->
      Array.fill dist 0 t (-1);
      dist.(src) <- 0;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        List.iter
          (fun v ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              queue.(!tail) <- v;
              incr tail
            end)
          adj.(u)
      done;
      let reach = ref [] and sum = ref 0 and sq = ref 0 in
      for k = t - 1 downto 0 do
        let d = dist.(k) in
        if d >= 0 then begin
          reach := (qubits.(k), d) :: !reach;
          sum := !sum + d;
          sq := !sq + (d * d)
        end
      done;
      let far = n - !tail in
      {
        qubit = qubits.(src);
        reach = !reach;
        sum = !sum + (far * n);
        norm = sqrt (float_of_int (!sq + (far * n * n)));
      })

(* Scan [gates] in the given order: the ascending keys of the exposed
   Clifford2Q gates (no earlier gate touches their qubits), and the number
   of qubits touched. *)
let exposed_scan sc gates =
  let gen = fresh_scan sc in
  let keys, touched =
    List.fold_left
      (fun (keys, touched) g ->
        let qs = Gate.qubits g in
        let exposed = List.for_all (fun q -> sc.seen.(q) <> gen) qs in
        let touched =
          List.fold_left
            (fun t q ->
              if sc.seen.(q) = gen then t
              else begin
                sc.seen.(q) <- gen;
                t + 1
              end)
            touched qs
        in
        match g with
        | Gate.Cliff2 c when exposed -> cliff_key c :: keys, touched
        | Gate.Cliff2 _ | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _
        | Gate.Su4 _ ->
          keys, touched)
      ([], 0) gates
  in
  List.sort compare keys, touched

(* The ascending keys of a 2Q layer, when every gate in it is a
   Clifford2Q. *)
let layer_keys = function
  | [] -> None
  | layer ->
    let keys =
      List.filter_map
        (function
          | Gate.Cliff2 c -> Some (cliff_key c)
          | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _ | Gate.Su4 _ ->
            None)
        layer
    in
    if List.compare_lengths keys layer = 0 then Some (List.sort compare keys)
    else None

let summarize ~routing_aware sc circuit =
  let n = Circuit.num_qubits circuit in
  let gates = Circuit.gates circuit in
  let leading, support = exposed_scan sc gates in
  let trailing, _ = exposed_scan sc (List.rev gates) in
  (* ASAP 2Q layers, as [Circuit.layers_2q] assigns them.  Layers only
     grow, so the gates of the last layer are those placed at the
     running maximum since it last rose. *)
  let depth = ref 0 and touched = ref [] in
  let first_layer = ref [] and last_layer = ref [] in
  List.iter
    (fun g ->
      if Gate.is_two_qubit g then begin
        let qs = Gate.qubits g in
        let l = 1 + List.fold_left (fun acc q -> max acc sc.busy.(q)) 0 qs in
        List.iter
          (fun q ->
            if sc.busy.(q) = 0 then begin
              sc.first.(q) <- l;
              touched := q :: !touched
            end;
            sc.busy.(q) <- l)
          qs;
        if l = 1 then first_layer := g :: !first_layer;
        if l > !depth then begin
          depth := l;
          last_layer := [ g ]
        end
        else if l = !depth then last_layer := g :: !last_layer
      end)
    gates;
  let l = !depth in
  let qubits = List.sort compare !touched in
  (* An untouched qubit traverses every layer from either side. *)
  let untouched = (n - List.length qubits) * l in
  let eq7 =
    if routing_aware then begin
      let qubits = Array.of_list qubits in
      Array.iteri (fun k q -> sc.local.(q) <- k) qubits;
      let two_q = List.filter Gate.is_two_qubit gates in
      Some (eq7_rows sc n qubits two_q, eq7_rows sc n qubits (List.rev two_q))
    end
    else None
  in
  let summary =
    {
      n;
      layers = l;
      sum_left =
        List.fold_left (fun acc q -> acc + sc.first.(q) - 1) untouched qubits;
      sum_right =
        List.fold_left (fun acc q -> acc + l - sc.busy.(q)) untouched qubits;
      first_qubits = List.filter (fun q -> sc.first.(q) = 1) qubits;
      last_qubits = List.filter (fun q -> sc.busy.(q) = l) qubits;
      leading;
      trailing;
      first_keys = layer_keys !first_layer;
      last_keys = layer_keys !last_layer;
      support;
      eq7;
    }
  in
  List.iter (fun q -> sc.busy.(q) <- 0) qubits;
  summary

(* --- the closed-form cost ---------------------------------------------- *)

(* Merges over ascending lists. *)
let rec disjoint xs ys =
  match xs, ys with
  | [], _ | _, [] -> true
  | x :: xs', y :: ys' ->
    if x = y then false else if x < y then disjoint xs' ys else disjoint xs ys'

let rec count_common acc xs ys =
  match xs, ys with
  | [], _ | _, [] -> acc
  | x :: xs', y :: ys' ->
    if x = y then count_common (acc + 1) xs' ys'
    else if x < y then count_common acc xs' ys
    else count_common acc xs ys'

let rec subset xs ys =
  match xs, ys with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' ->
    if x = y then subset xs' ys else if x > y then subset xs ys' else false

(* Σ_j (n − d_j)(n − d'_j) over the qubits both rows reach. *)
let rec shared_reach n acc xs ys =
  match xs, ys with
  | [], _ | _, [] -> acc
  | (j, d) :: xs', (j', d') :: ys' ->
    if j = j' then shared_reach n (acc + ((n - d) * (n - d'))) xs' ys'
    else if j < j' then shared_reach n acc xs' ys
    else shared_reach n acc xs ys'

let min_similarity = 0.05

(* Eq. 7 between the tail rows of the preceding block and the head rows
   of the succeeding one: s = Σ_i ⟨D_i, D'_i⟩ / (‖D_i‖·‖D'_i‖) in qubit
   order, zero-norm rows skipped, clamped below by [min_similarity].  A
   qubit outside a part has the row (n, …, n, 0, n, …, n).  Writing
   D_ij = n − a_ij, where a_ij is non-zero only on qubits row i reaches,
   ⟨D_i, D'_i⟩ = n·ΣD_i + n·ΣD'_i − n³ + Σ_j a_ij·a'_ij; the last sum is
   n² unless both rows are real, and then a merge of their reach lists.
   Every term is an exact integer, so each ratio is computed with the
   same float operations as from the dense matrices. *)
let similarity n (tail : row array) (head : row array) =
  let outside_sum = (n - 1) * n in
  let outside_norm = sqrt (float_of_int ((n - 1) * n * n)) in
  let next_row rows k i =
    if k < Array.length rows && rows.(k).qubit = i then k else -1
  in
  let s = ref 0.0 and kt = ref 0 and kh = ref 0 in
  for i = 0 to n - 1 do
    let it = next_row tail !kt i and ih = next_row head !kh i in
    let sum, norm =
      if it < 0 then outside_sum, outside_norm
      else tail.(it).sum, tail.(it).norm
    in
    let sum', norm' =
      if ih < 0 then outside_sum, outside_norm
      else head.(ih).sum, head.(ih).norm
    in
    if norm > 0.0 && norm' > 0.0 then begin
      let shared =
        if it < 0 || ih < 0 then n * n
        else shared_reach n 0 tail.(it).reach head.(ih).reach
      in
      let dot = (n * (sum + sum')) - (n * n * n) + shared in
      s := !s +. (float_of_int dot /. (norm *. norm'))
    end;
    if it >= 0 then incr kt;
    if ih >= 0 then incr kh
  done;
  Float.max !s min_similarity

let score prev next =
  if prev.n <> next.n then
    invalid_arg "Order.assembly_cost: qubit-count mismatch";
  (* Fig. 3: Σ(e_r + e_l'), discounted by one per qubit unless the
     interface is fully blocked — both sides have a 2Q layer and no qubit
     is free on both (disjoint zero sets). *)
  let blocked =
    prev.layers > 0 && next.layers > 0
    && disjoint prev.last_qubits next.first_qubits
  in
  let discount = if blocked then 0 else prev.n in
  let base = float_of_int (prev.sum_right + next.sum_left - discount) in
  (* Fig. 4a: exposed gates are qubit-disjoint, so each key occurs at most
     once per side and [m] counts the cancelling pairs.  A boundary layer
     empties when every gate in it is one of them. *)
  let m = count_common 0 prev.trailing next.leading in
  let emptied = function
    | Some ks -> subset ks prev.trailing && subset ks next.leading
    | None -> false
  in
  let layer_saving side s = if side then float_of_int s.support else 0.0 in
  let cost =
    base
    -. (2.0 *. float_of_int m)
    -. layer_saving (emptied prev.last_keys) prev
    -. layer_saving (emptied next.first_keys) next
  in
  match prev.eq7, next.eq7 with
  | Some (_, tail), Some (head, _) -> cost /. similarity prev.n tail head
  | None, _ | _, None -> cost

let assembly_cost ?(routing_aware = false) prev next =
  let sc =
    scratch
      (max (Circuit.num_qubits prev.circuit) (Circuit.num_qubits next.circuit))
  in
  score
    (summarize ~routing_aware sc prev.circuit)
    (summarize ~routing_aware sc next.circuit)

let order ?(lookahead = 10) ?(routing_aware = false) blocks =
  if lookahead < 1 then invalid_arg "Order.order: lookahead must be at least 1";
  match blocks with
  | [] | [ _ ] -> blocks
  | _ ->
    (* Pre-arrange in descending width; stable for equal widths. *)
    let by_width =
      Array.of_list (List.map (fun b -> Group.weight b.group, b) blocks)
    in
    Array.stable_sort (fun (w, _) (w', _) -> Int.compare w' w) by_width;
    let sc =
      scratch
        (List.fold_left
           (fun acc b -> max acc (Circuit.num_qubits b.circuit))
           0 blocks)
    in
    let pool =
      Array.map
        (fun (_, b) -> b, summarize ~routing_aware sc b.circuit)
        by_width
    in
    (* [pool.(0 .. start-1)] is the assembled sequence; the rest is the
       remaining pool in pre-arranged order, scanned [lookahead] at a
       time.  The first minimum in window order wins; the chosen block
       moves to [start] by shifting the entries it skipped. *)
    let len = Array.length pool in
    for start = 1 to len - 1 do
      let last = snd pool.(start - 1) in
      let best = ref start in
      let best_cost = ref (score last (snd pool.(start))) in
      for k = start + 1 to min len (start + lookahead) - 1 do
        let cost = score last (snd pool.(k)) in
        if not (!best_cost <= cost) then begin
          best := k;
          best_cost := cost
        end
      done;
      let chosen = pool.(!best) in
      Array.blit pool start pool (start + 1) (!best - start);
      pool.(start) <- chosen
    done;
    Array.fold_right (fun (b, _) acc -> b :: acc) pool []
