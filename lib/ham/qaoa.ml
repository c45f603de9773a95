module Prng = Phoenix_util.Prng
module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Pauli_term = Phoenix_pauli.Pauli_term

let zz_term n gamma (a, b) =
  let p =
    Pauli_string.set (Pauli_string.single n a Pauli.Z) b Pauli.Z
  in
  Pauli_term.make p (gamma /. 2.0)

let maxcut_cost ?(gamma = 1.0) g =
  let n = Graphs.num_vertices g in
  Hamiltonian.make n (List.map (zz_term n gamma) (Graphs.edges g))

let ansatz ?(seed = 1) ~layers g =
  if layers <= 0 then invalid_arg "Qaoa.ansatz: need at least one layer";
  let n = Graphs.num_vertices g in
  let rng = Prng.create seed in
  let layer _ =
    let gamma = Prng.uniform rng 0.1 1.0 and beta = Prng.uniform rng 0.1 1.0 in
    let cost = List.map (zz_term n gamma) (Graphs.edges g) in
    let mixer =
      List.init n (fun q ->
          Pauli_term.make (Pauli_string.single n q Pauli.X) (beta /. 2.0))
    in
    cost @ mixer
  in
  Hamiltonian.make n (List.concat_map layer (List.init layers (fun l -> l)))

let benchmark_labels =
  [ "Rand-16"; "Rand-20"; "Rand-24"; "Reg3-16"; "Reg3-20"; "Reg3-24" ]

let scaling_labels = [ "Reg3-100"; "Reg3-250"; "Reg3-500"; "Reg3-1000" ]

(* The one seeding rule for every named graph: [Rand-n] is 4-regular
   with seed [1000 + n], [Reg3-n] is 3-regular with seed [3000 + n]. *)
let graph_of_label label =
  let regular ~seed_base ~degree n =
    Some (Graphs.random_regular ~seed:(seed_base + n) ~degree n)
  in
  if not (List.mem label benchmark_labels || List.mem label scaling_labels)
  then None
  else
    match String.split_on_char '-' label with
    | [ "Rand"; n ] -> regular ~seed_base:1000 ~degree:4 (int_of_string n)
    | [ "Reg3"; n ] -> regular ~seed_base:3000 ~degree:3 (int_of_string n)
    | _ -> None

let suite labels = List.map (fun l -> (l, Option.get (graph_of_label l))) labels
let benchmark_suite () = suite benchmark_labels
let scaling_suite () = suite scaling_labels
