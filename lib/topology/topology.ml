(* Every table is filled once by [make] and shared read-only by all
   callers: the router reads [dist] and [nbr] on every candidate it
   scores, so they are flat arrays rather than lists or a lazy matrix. *)
type t = {
  n : int;
  edges : (int * int) list;
  nbr : int array array; (* neighbours of each qubit, ascending *)
  dist : int array; (* row-stride n·n BFS distances; [n] = unreachable *)
  adjacent : Bytes.t; (* row-stride n·n, '\001' on a coupling edge *)
  connected : bool;
}

let bfs_distances n nbr =
  let dist = Array.make (n * n) n in
  let queue = Array.make n 0 in
  for src = 0 to n - 1 do
    let row = src * n in
    dist.(row + src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Array.iter
        (fun v ->
          if dist.(row + v) = n && v <> src then begin
            dist.(row + v) <- dist.(row + u) + 1;
            queue.(!tail) <- v;
            incr tail
          end)
        nbr.(u)
    done
  done;
  dist

let make n raw_edges =
  if n <= 0 then invalid_arg "Topology.make: need at least one qubit";
  let normalize (a, b) =
    if a = b then invalid_arg "Topology.make: self-loop";
    if a < 0 || b < 0 || a >= n || b >= n then
      invalid_arg "Topology.make: qubit out of range";
    min a b, max a b
  in
  let edges = List.sort_uniq compare (List.map normalize raw_edges) in
  let adj = Array.make n [] in
  let adjacent = Bytes.make (n * n) '\000' in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b);
      Bytes.set adjacent ((a * n) + b) '\001';
      Bytes.set adjacent ((b * n) + a) '\001')
    edges;
  let nbr = Array.map (fun l -> Array.of_list (List.sort compare l)) adj in
  let dist = bfs_distances n nbr in
  let connected =
    let rec reach v = v >= n || (dist.(v) < n && reach (v + 1)) in
    reach 0
  in
  { n; edges; nbr; dist; adjacent; connected }

let num_qubits t = t.n
let edges t = t.edges
let neighbors t q = Array.to_list t.nbr.(q)
let neighbor_array t q = t.nbr.(q)
let are_adjacent t a b =
  b >= 0 && b < t.n && Bytes.get t.adjacent ((a * t.n) + b) <> '\000'
let distance t a b = t.dist.((a * t.n) + b)
let distances t = t.dist
let is_connected t = t.connected

let all_to_all n =
  make n
    (List.concat_map
       (fun i -> List.init (n - 1 - i) (fun d -> i, i + 1 + d))
       (List.init n (fun i -> i)))

let line n = make n (List.init (n - 1) (fun i -> i, i + 1))

let ring n =
  if n < 3 then line n
  else make n ((n - 1, 0) :: List.init (n - 1) (fun i -> i, i + 1))

let grid ~rows ~cols =
  let id r c = (r * cols) + c in
  let horizontal =
    List.concat_map
      (fun r -> List.init (cols - 1) (fun c -> id r c, id r (c + 1)))
      (List.init rows (fun r -> r))
  in
  let vertical =
    List.concat_map
      (fun r -> List.init cols (fun c -> id r c, id (r + 1) c))
      (List.init (rows - 1) (fun r -> r))
  in
  make (rows * cols) (horizontal @ vertical)

let heavy_hex ~widths =
  if widths = [] then invalid_arg "Topology.heavy_hex: no rows";
  let widths = Array.of_list widths in
  let n_rows = Array.length widths in
  (* Assign ids: row qubits first (row by row), then bridge qubits. *)
  let row_start = Array.make n_rows 0 in
  for r = 1 to n_rows - 1 do
    row_start.(r) <- row_start.(r - 1) + widths.(r - 1)
  done;
  let total_row_qubits = row_start.(n_rows - 1) + widths.(n_rows - 1) in
  let id r c = row_start.(r) + c in
  let horizontal =
    List.concat_map
      (fun r -> List.init (widths.(r) - 1) (fun c -> id r c, id r (c + 1)))
      (List.init n_rows (fun r -> r))
  in
  let next_bridge = ref total_row_qubits in
  let bridge_edges = ref [] in
  for g = 0 to n_rows - 2 do
    let offset = if g mod 2 = 0 then 0 else 2 in
    let max_col = min widths.(g) widths.(g + 1) - 1 in
    let c = ref offset in
    while !c <= max_col do
      let b = !next_bridge in
      incr next_bridge;
      bridge_edges := (id g !c, b) :: (b, id (g + 1) !c) :: !bridge_edges;
      c := !c + 4
    done
  done;
  make !next_bridge (horizontal @ !bridge_edges)

let ibm_manhattan () = heavy_hex ~widths:[ 10; 11; 11; 11; 10 ]

let pp fmt t =
  Format.fprintf fmt "topology(%d qubits, %d edges)" t.n (List.length t.edges)
