module Pauli_string = Phoenix_pauli.Pauli_string
module Pauli_term = Phoenix_pauli.Pauli_term

type t = {
  n : int;
  terms : Pauli_term.t list;
  block_sizes : int list option;
}

let make n terms =
  if n <= 0 then invalid_arg "Hamiltonian.make: need at least one qubit";
  List.iter
    (fun (term : Pauli_term.t) ->
      if Pauli_string.num_qubits term.Pauli_term.pauli <> n then
        invalid_arg "Hamiltonian.make: qubit-count mismatch";
      if Pauli_string.is_identity term.Pauli_term.pauli then
        invalid_arg "Hamiltonian.make: identity term")
    terms;
  { n; terms; block_sizes = None }

let make_blocks n blocks =
  let flat = make n (List.concat blocks) in
  { flat with block_sizes = Some (List.map List.length blocks) }

let term_blocks t =
  match t.block_sizes with
  | None -> None
  | Some sizes ->
    let rec split terms = function
      | [] -> []
      | size :: rest ->
        let rec take k acc terms =
          if k = 0 then List.rev acc, terms
          else begin
            match terms with
            | x :: tl -> take (k - 1) (x :: acc) tl
            | [] -> assert false
          end
        in
        let block, remaining = take size [] terms in
        block :: split remaining rest
    in
    Some (split t.terms sizes)

let num_qubits t = t.n
let terms t = t.terms
let num_terms t = List.length t.terms

let max_weight t =
  List.fold_left (fun acc term -> max acc (Pauli_term.weight term)) 0 t.terms

let scale s t = { t with terms = List.map (Pauli_term.scale s) t.terms }

let gadget_of_term tau (term : Pauli_term.t) =
  term.Pauli_term.pauli, 2.0 *. term.Pauli_term.coeff *. tau

let trotter_gadgets ?(tau = 1.0) t = List.map (gadget_of_term tau) t.terms

let gadget_blocks ?(tau = 1.0) t =
  Option.map (List.map (List.map (gadget_of_term tau))) (term_blocks t)

let trotter_gadgets_order2 ?(tau = 1.0) t =
  let half = trotter_gadgets ~tau:(tau /. 2.0) t in
  half @ List.rev half

let to_lines t =
  List.map
    (fun (term : Pauli_term.t) ->
      Printf.sprintf "%.17g %s" term.Pauli_term.coeff
        (Pauli_string.to_string term.Pauli_term.pauli))
    t.terms

let of_lines lines =
  let parse line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else begin
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ coeff_s; pauli_s ] ->
        let coeff =
          try float_of_string coeff_s
          with Failure _ ->
            invalid_arg
              (Printf.sprintf "Hamiltonian.of_lines: bad coefficient %S" coeff_s)
        in
        Some (Pauli_term.make (Pauli_string.of_string pauli_s) coeff)
      | _ -> invalid_arg (Printf.sprintf "Hamiltonian.of_lines: bad line %S" line)
    end
  in
  let terms = List.filter_map parse lines in
  match terms with
  | [] -> invalid_arg "Hamiltonian.of_lines: no terms"
  | first :: _ -> make (Pauli_term.num_qubits first) terms

let pp fmt t =
  Format.fprintf fmt "@[<v>Hamiltonian on %d qubits, %d terms:@," t.n
    (num_terms t);
  List.iter (fun term -> Format.fprintf fmt "  %a@," Pauli_term.pp term) t.terms;
  Format.fprintf fmt "@]"
