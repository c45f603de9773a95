(* Quickstart: compile a tiny Hamiltonian-simulation program with PHOENIX
   and inspect the result.

     dune exec examples/quickstart.exe *)

module Pauli_string = Phoenix_pauli.Pauli_string
module Pauli_term = Phoenix_pauli.Pauli_term
module Hamiltonian = Phoenix_ham.Hamiltonian
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Circuit = Phoenix_circuit.Circuit

let () =
  (* A Hamiltonian is a weighted sum of Pauli strings.  This one is the
     3-qubit transverse-field Ising model written out by hand; the
     [Phoenix_ham.Spin_models] module generates such models for you. *)
  let term s c = Pauli_term.make (Pauli_string.of_string s) c in
  let h =
    Hamiltonian.make 3
      [
        term "ZZI" (-1.0);
        term "IZZ" (-1.0);
        term "XII" (-0.5);
        term "IXI" (-0.5);
        term "IIX" (-0.5);
      ]
  in
  Printf.printf "Hamiltonian: %d qubits, %d terms\n" (Hamiltonian.num_qubits h)
    (Hamiltonian.num_terms h);

  (* Compile one first-order Trotter step exp(-i·h_j·τ·P_j) per term. *)
  let options = { Compiler.default_options with tau = 0.1 } in
  let report = Registry.compile ~options Registry.phoenix h in
  Printf.printf "PHOENIX output: %d CNOTs, 2Q depth %d, %d 1Q gates\n"
    report.Compiler.two_q_count report.Compiler.depth_2q
    report.Compiler.one_q_count;

  (* The result is an ordinary circuit value. *)
  print_endline "gate list:";
  List.iter
    (fun g -> print_endline ("  " ^ Phoenix_circuit.Gate.to_string g))
    (Circuit.gates report.Compiler.circuit);

  (* Verify the compilation against the exact gadget product (PHOENIX in
     exact mode performs only unitary-preserving rewrites). *)
  let exact_opts = { options with exact = true } in
  let exact = Registry.compile ~options:exact_opts Registry.phoenix h in
  let reference =
    Phoenix_linalg.Unitary.program_unitary 3
      (Hamiltonian.trotter_gadgets ~tau:0.1 h)
  in
  let compiled =
    Phoenix_linalg.Unitary.circuit_unitary exact.Compiler.circuit
  in
  Printf.printf "exact-mode infidelity vs gadget product: %.2e\n"
    (Phoenix_linalg.Fidelity.infidelity reference compiled)
