(* Heisenberg-chain dynamics: Trotterized time evolution, compiled with
   PHOENIX, with the algorithmic error measured against the exact
   propagator — a miniature of the paper's Fig. 8 methodology.

     dune exec examples/heisenberg_dynamics.exe *)

module Spin_models = Phoenix_ham.Spin_models
module Hamiltonian = Phoenix_ham.Hamiltonian
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Unitary = Phoenix_linalg.Unitary
module Herm = Phoenix_linalg.Herm
module Fidelity = Phoenix_linalg.Fidelity

let () =
  let n = 6 in
  let h = Spin_models.heisenberg_chain ~jx:1.0 ~jy:1.0 ~jz:0.8 n in
  Printf.printf "Heisenberg chain: %d qubits, %d terms\n" n
    (Hamiltonian.num_terms h);

  let to_float_terms ham =
    List.map
      (fun (t : Phoenix_pauli.Pauli_term.t) ->
        t.Phoenix_pauli.Pauli_term.pauli, t.Phoenix_pauli.Pauli_term.coeff)
      (Hamiltonian.terms ham)
  in
  let decomposition = Herm.eig (Unitary.hamiltonian_matrix n (to_float_terms h)) in

  (* For a total time t split into r Trotter steps, compile one step and
     take its unitary to the r-th power. *)
  let total_time = 1.0 in
  Printf.printf "%-8s %-10s %-12s %-10s\n" "steps" "#CNOT" "infidelity" "depth2q";
  List.iter
    (fun steps ->
      let tau = total_time /. float_of_int steps in
      let options = { Compiler.default_options with tau } in
      let r = Registry.compile ~options Registry.phoenix h in
      let step_u = Unitary.circuit_unitary r.Compiler.circuit in
      let rec pow acc k =
        if k = 0 then acc else pow (Phoenix_linalg.Cmat.mul step_u acc) (k - 1)
      in
      let evolved = pow (Phoenix_linalg.Cmat.identity (1 lsl n)) steps in
      let exact = Herm.evolution decomposition total_time in
      Printf.printf "%-8d %-10d %-12.3e %-10d\n" steps
        (steps * r.Compiler.two_q_count)
        (Fidelity.infidelity exact evolved)
        (steps * r.Compiler.depth_2q))
    [ 1; 2; 4; 8 ];

  (* product-formula comparison at fixed gate budget *)
  print_endline "\nproduct formulas at roughly equal gadget count:";
  let exact = Herm.evolution decomposition total_time in
  let err name gadgets =
    Printf.printf "  %-22s %4d gadgets   infidelity %.3e\n" name
      (List.length gadgets)
      (Fidelity.infidelity exact (Unitary.program_unitary n gadgets))
  in
  let module T = Phoenix_ham.Trotter in
  (* 4 first-order steps ≈ 2 second-order steps ≈ 60 qDRIFT samples *)
  let repeat k gs = List.concat (List.init k (fun _ -> gs)) in
  err "1st order × 4" (repeat 4 (T.first_order ~tau:(total_time /. 4.0) h));
  err "2nd order × 2" (repeat 2 (T.second_order ~tau:(total_time /. 2.0) h));
  err "qDRIFT (60 samples)" (T.qdrift ~seed:5 ~samples:60 ~time:total_time h)
