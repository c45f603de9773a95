module Hamiltonian = Phoenix_ham.Hamiltonian

let grammar =
  "uccsd:<Table-I label>, qaoa:<Table-IV label or Reg3-100/250/500/1000>, \
   heisenberg:<n>, tfim:<n>, fermi-hubbard:<l> or <rows>x<cols>"

let pos_int s =
  match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

let of_spec name =
  let unknown () =
    Error (Printf.sprintf "no such builtin workload: %s (builtins: %s)" name grammar)
  in
  match String.split_on_char ':' name with
  | [ "uccsd"; label ] -> (
    match Phoenix_ham.Molecules.find label with
    | b ->
      Ok
        (Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
           b.Phoenix_ham.Molecules.spec)
    | exception Not_found ->
      Error (Printf.sprintf "unknown uccsd label %S (see Table I)" label))
  | [ "qaoa"; label ] -> (
    match Phoenix_ham.Qaoa.graph_of_label label with
    | Some g -> Ok (Phoenix_ham.Qaoa.maxcut_cost g)
    | None -> Error (Printf.sprintf "unknown qaoa graph %S" label))
  | [ "heisenberg"; n ] -> (
    match pos_int n with
    | Some n -> Ok (Phoenix_ham.Spin_models.heisenberg_chain n)
    | None -> unknown ())
  | [ "tfim"; n ] -> (
    match pos_int n with
    | Some n -> Ok (Phoenix_ham.Spin_models.tfim_chain n)
    | None -> unknown ())
  | [ "fermi-hubbard"; shape ] -> (
    match String.split_on_char 'x' shape with
    | [ l ] -> (
      match pos_int l with
      | Some l -> Ok (Phoenix_ham.Fermi_hubbard.chain l)
      | None -> unknown ())
    | [ r; c ] -> (
      match (pos_int r, pos_int c) with
      | Some rows, Some cols ->
        Ok (Phoenix_ham.Fermi_hubbard.lattice ~rows ~cols ())
      | _ -> unknown ())
    | _ -> unknown ())
  | _ -> unknown ()

let of_inline text =
  match Hamiltonian.of_lines (String.split_on_char '\n' text) with
  | h -> Ok h
  | exception Invalid_argument msg -> Error msg
