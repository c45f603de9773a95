module Hamiltonian = Phoenix_ham.Hamiltonian
module Compiler = Phoenix.Compiler
module Statevector = Phoenix_linalg.Statevector

type t = {
  n : int;
  blocks : (Phoenix_pauli.Pauli_string.t * float) list list;
      (** base gadget angles (2·h_j), scaled per block by the parameter *)
}

let of_hamiltonian h =
  let blocks =
    match Hamiltonian.gadget_blocks h with
    | Some blocks -> blocks
    | None -> List.map (fun g -> [ g ]) (Hamiltonian.trotter_gadgets h)
  in
  { n = Hamiltonian.num_qubits h; blocks }

let num_qubits t = t.n
let num_parameters t = List.length t.blocks

let gadgets t theta =
  if Array.length theta <> num_parameters t then
    invalid_arg "Ansatz.gadgets: parameter arity mismatch";
  List.mapi
    (fun k block ->
      List.map (fun (p, base) -> p, theta.(k) *. base) block)
    t.blocks

let circuit ?options t theta =
  let report =
    Phoenix_pipeline.Registry.compile_blocks ?options
      Phoenix_pipeline.Registry.phoenix t.n (gadgets t theta)
  in
  report.Compiler.circuit

let param_names t = Array.init (num_parameters t) (Printf.sprintf "theta%d")

(* Each block's slot records exactly the expression [gadgets] computes
   — [theta.(k) *. base] — so binding the template at [theta] is
   bit-identical to [circuit t theta] (for generic angles). *)
let template ?(options = Compiler.default_options) t =
  let blocks =
    List.mapi
      (fun k block ->
        List.map
          (fun (p, base) ->
            p, Phoenix_pauli.Angle.param ~index:k ~scale:base)
          block)
      t.blocks
  in
  Compiler.compile_template ~options ~params:(param_names t) t.n blocks

let bind = Phoenix.Template.bind
let bind_batch = Phoenix.Template.bind_batch

let state t theta = Statevector.of_circuit (circuit t theta)

let state_with_reference t ~occupied theta =
  let v = Statevector.zero_state t.n in
  List.iter
    (fun q ->
      Statevector.apply_gate v (Phoenix_circuit.Gate.G1 (Phoenix_circuit.Gate.X, q)))
    occupied;
  Statevector.run_circuit v (circuit t theta);
  v
