type t = { n : int; gates : Gate.t list }

let check_gate n g =
  List.iter
    (fun q ->
      if q < 0 || q >= n then
        invalid_arg
          (Printf.sprintf "Circuit: gate %s outside register of %d qubits"
             (Gate.to_string g) n))
    (Gate.qubits g)

let create n gates =
  if n <= 0 then invalid_arg "Circuit.create: need at least one qubit";
  List.iter (check_gate n) gates;
  { n; gates }

let of_validated n gates =
  if n <= 0 then invalid_arg "Circuit.of_validated: need at least one qubit";
  { n; gates }

let empty n = create n []
let num_qubits t = t.n
let gates t = t.gates
let gate_array t = Array.of_list t.gates
let length t = List.length t.gates

let append t g =
  check_gate t.n g;
  { t with gates = t.gates @ [ g ] }

let concat a b =
  if a.n <> b.n then invalid_arg "Circuit.concat: qubit-count mismatch";
  { n = a.n; gates = a.gates @ b.gates }

let concat_list n cs =
  let init = empty n in
  List.iter
    (fun c ->
      if c.n <> n then invalid_arg "Circuit.concat: qubit-count mismatch")
    cs;
  { init with gates = List.concat_map gates cs }

let dagger t = { t with gates = List.rev_map Gate.dagger t.gates }

let map_angles f t = { t with gates = List.map (Gate.map_angles f) t.gates }

let map_qubits f t =
  let gates = List.map (Gate.map_qubits f) t.gates in
  List.iter (check_gate t.n) gates;
  { t with gates }

let with_num_qubits n t =
  if n < t.n then invalid_arg "Circuit.with_num_qubits: cannot shrink";
  { t with n }

let count pred t =
  List.fold_left (fun acc g -> if pred g then acc + 1 else acc) 0 t.gates

let count_1q t = count (fun g -> not (Gate.is_two_qubit g)) t
let count_2q t = count Gate.is_two_qubit t

let rec cnot_cost g =
  match g with
  | Gate.G1 _ -> 0
  | Gate.Cnot _ | Gate.Cliff2 _ -> 1
  | Gate.Rpp _ -> 2
  | Gate.Swap _ -> 3
  | Gate.Su4 { parts; _ } ->
    List.fold_left (fun acc p -> acc + cnot_cost p) 0 parts

let count_cnot t = List.fold_left (fun acc g -> acc + cnot_cost g) 0 t.gates

(* ASAP scheduling: each gate lands one layer after the latest busy layer
   among its qubits.  Operands are read with [first_qubit] and
   [second_qubit] (-1 for a 1Q gate), so a call allocates [busy] and
   nothing per gate. *)
let depth_generic ~only_2q t =
  let busy = Array.make t.n 0 in
  let rec place dep = function
    | [] -> dep
    | g :: rest ->
      let a = Gate.first_qubit g and b = Gate.second_qubit g in
      let ready = if b >= 0 && busy.(b) > busy.(a) then busy.(b) else busy.(a) in
      let layer = if b < 0 && only_2q then ready else ready + 1 in
      busy.(a) <- layer;
      if b >= 0 then busy.(b) <- layer;
      place (if layer > dep then layer else dep) rest
  in
  place 0 t.gates

let depth t = depth_generic ~only_2q:false t
let depth_2q t = depth_generic ~only_2q:true t

let layers_2q t =
  let busy = Array.make t.n 0 in
  let layers : (int, Gate.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let max_layer = ref 0 in
  let place g =
    if Gate.is_two_qubit g then begin
      let qs = Gate.qubits g in
      let layer = 1 + List.fold_left (fun acc q -> max acc busy.(q)) 0 qs in
      List.iter (fun q -> busy.(q) <- layer) qs;
      if layer > !max_layer then max_layer := layer;
      match Hashtbl.find_opt layers layer with
      | Some cell -> cell := g :: !cell
      | None -> Hashtbl.add layers layer (ref [ g ])
    end
  in
  List.iter place t.gates;
  List.init !max_layer (fun i ->
      match Hashtbl.find_opt layers (i + 1) with
      | Some cell -> List.rev !cell
      | None -> [])

let used_qubits t =
  let used = Array.make t.n false in
  List.iter (fun g -> List.iter (fun q -> used.(q) <- true) (Gate.qubits g)) t.gates;
  List.filter (fun q -> used.(q)) (List.init t.n (fun i -> i))

let equal a b =
  a.n = b.n
  && List.length a.gates = List.length b.gates
  && List.for_all2 Gate.equal a.gates b.gates

let pp fmt t =
  Format.fprintf fmt "@[<v>circuit on %d qubits (%d gates):@," t.n
    (List.length t.gates);
  List.iter (fun g -> Format.fprintf fmt "  %a@," Gate.pp g) t.gates;
  Format.fprintf fmt "@]"
