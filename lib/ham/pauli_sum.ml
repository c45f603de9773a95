module Pauli_string = Phoenix_pauli.Pauli_string

type t = { n : int; terms : (Complex.t * Pauli_string.t) list }

let tolerance = 1e-12

let normalize n terms =
  let table = Hashtbl.create (List.length terms) in
  List.iter
    (fun ((c : Complex.t), p) ->
      let key = Pauli_string.to_string p in
      match Hashtbl.find_opt table key with
      | Some (acc, _) -> Hashtbl.replace table key (Complex.add acc c, p)
      | None -> Hashtbl.add table key (c, p))
    terms;
  let collected =
    Hashtbl.fold
      (fun _ (c, p) acc ->
        if Complex.norm c < tolerance then acc else (c, p) :: acc)
      table []
  in
  let sorted =
    List.sort (fun (_, p) (_, q) -> Pauli_string.compare p q) collected
  in
  { n; terms = sorted }

let zero n = { n; terms = [] }

let of_term c p =
  normalize (Pauli_string.num_qubits p) [ c, p ]

let identity n = of_term Complex.one (Pauli_string.identity n)

let num_qubits t = t.n
let terms t = t.terms
let num_terms t = List.length t.terms
let is_zero t = t.terms = []

let check_compatible a b =
  if a.n <> b.n then invalid_arg "Pauli_sum: qubit-count mismatch"

let add a b =
  check_compatible a b;
  normalize a.n (a.terms @ b.terms)

let scale c t =
  normalize t.n (List.map (fun (c', p) -> Complex.mul c c', p) t.terms)

let neg t = scale { Complex.re = -1.0; im = 0.0 } t
let sub a b = add a (neg b)

let i_pow k =
  match ((k mod 4) + 4) mod 4 with
  | 0 -> Complex.one
  | 1 -> Complex.i
  | 2 -> { Complex.re = -1.0; im = 0.0 }
  | _ -> { Complex.re = 0.0; im = -1.0 }

let mul a b =
  check_compatible a b;
  let products =
    List.concat_map
      (fun (ca, pa) ->
        List.map
          (fun (cb, pb) ->
            let k, p = Pauli_string.mul pa pb in
            Complex.mul (Complex.mul ca cb) (i_pow k), p)
          b.terms)
      a.terms
  in
  normalize a.n products

let dagger t =
  normalize t.n (List.map (fun (c, p) -> Complex.conj c, p) t.terms)

let anticommutator a b = add (mul a b) (mul b a)

let is_hermitian t =
  List.for_all (fun ((c : Complex.t), _) -> Float.abs c.Complex.im < tolerance)
    t.terms

let is_anti_hermitian t =
  List.for_all (fun ((c : Complex.t), _) -> Float.abs c.Complex.re < tolerance)
    t.terms

let to_hermitian_terms t =
  List.filter_map
    (fun ((c : Complex.t), p) ->
      if Float.abs c.Complex.im > 1e-9 then
        invalid_arg "Pauli_sum.to_hermitian_terms: non-Hermitian sum";
      if Pauli_string.is_identity p then None else Some (p, c.Complex.re))
    t.terms

let pp fmt t =
  if t.terms = [] then Format.pp_print_string fmt "0"
  else
    List.iter
      (fun ((c : Complex.t), p) ->
        Format.fprintf fmt "(%+.4g%+.4gi)·%a " c.Complex.re c.Complex.im
          Pauli_string.pp p)
      t.terms
