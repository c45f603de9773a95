module Vqe = Phoenix_vqe.Vqe
module Ansatz = Phoenix_vqe.Ansatz
module Optimize = Phoenix_vqe.Optimize
module Fermion = Phoenix_ham.Fermion
module Hamiltonian = Phoenix_ham.Hamiltonian
module Es = Phoenix_ham.Electronic_structure
module Pauli_sum = Phoenix_ham.Pauli_sum

let h2_spec =
  { Phoenix_ham.Uccsd.name = "H2_like"; n_spatial = 2; n_electrons = 2; frozen = 0 }

(* --- electronic structure --- *)

let test_es_hermitian_terms () =
  List.iter
    (fun enc ->
      let h = Es.synthetic ~seed:3 enc ~n_spatial:2 in
      Alcotest.(check int) "qubits" 4 (Hamiltonian.num_qubits h);
      Alcotest.(check bool) "nonempty" true (Hamiltonian.num_terms h > 0))
    [ Fermion.Jordan_wigner; Fermion.Bravyi_kitaev ]

let test_es_rejects_asymmetric () =
  Alcotest.check_raises "asym"
    (Invalid_argument "Electronic_structure: one_body not symmetric") (fun () ->
      ignore
        (Es.of_integrals Fermion.Jordan_wigner
           ~one_body:[| [| 0.0; 1.0 |]; [| 0.5; 0.0 |] |]
           ~two_body_density:(Array.make_matrix 4 4 0.0)))

let test_es_jw_bk_isospectral () =
  (* the two encodings must produce the same spectrum *)
  let spectrum enc =
    let h = Es.hubbard_chain ~t:1.0 ~u:2.0 enc 2 in
    let m =
      Phoenix_linalg.Unitary.hamiltonian_matrix (Hamiltonian.num_qubits h)
        (List.map
           (fun (t : Phoenix_pauli.Pauli_term.t) ->
             t.Phoenix_pauli.Pauli_term.pauli, t.Phoenix_pauli.Pauli_term.coeff)
           (Hamiltonian.terms h))
    in
    let d = Phoenix_linalg.Herm.eig m in
    let eigs = Array.copy d.Phoenix_linalg.Herm.eigenvalues in
    Array.sort compare eigs;
    eigs
  in
  let jw = spectrum Fermion.Jordan_wigner and bk = spectrum Fermion.Bravyi_kitaev in
  Array.iteri
    (fun i e ->
      Alcotest.(check (float 1e-7)) (Printf.sprintf "eig %d" i) e bk.(i))
    jw

let test_hubbard_structure () =
  let h = Es.hubbard_chain ~t:1.0 ~u:4.0 Fermion.Jordan_wigner 3 in
  Alcotest.(check int) "qubits" 6 (Hamiltonian.num_qubits h);
  (* hopping: 2 bonds × 2 spins × 2 strings = 8; U: 3 ZZ + locals *)
  Alcotest.(check bool) "has terms" true (Hamiltonian.num_terms h >= 11)

(* --- ansatz --- *)

let test_ansatz_parameters () =
  let cluster = Phoenix_ham.Uccsd.ansatz Fermion.Jordan_wigner h2_spec in
  let a = Ansatz.of_hamiltonian cluster in
  (* H2-like: 2 singles + 1 double = 3 excitation blocks *)
  Alcotest.(check int) "parameters" 3 (Ansatz.num_parameters a);
  Alcotest.(check int) "qubits" 4 (Ansatz.num_qubits a);
  Alcotest.check_raises "arity" (Invalid_argument "Ansatz.gadgets: parameter arity mismatch")
    (fun () -> ignore (Ansatz.gadgets a [| 0.0 |]))

let test_ansatz_zero_parameters_identity () =
  let cluster = Phoenix_ham.Uccsd.ansatz Fermion.Jordan_wigner h2_spec in
  let a = Ansatz.of_hamiltonian cluster in
  let v = Ansatz.state a (Array.make 3 0.0) in
  (* zero parameters → all angles zero → |0000⟩ *)
  Alcotest.(check (float 1e-9)) "stays |0…0⟩" 1.0
    (Complex.norm (Phoenix_linalg.Statevector.amplitude v 0))

(* --- optimizers --- *)

let quadratic x =
  Array.fold_left (fun acc xi -> acc +. ((xi -. 1.5) ** 2.0)) 0.0 x

let test_nelder_mead_quadratic () =
  let x, trace = Optimize.nelder_mead ~iterations:400 quadratic [| 0.0; 0.0 |] in
  Alcotest.(check bool) "converged" true (trace.Optimize.best_value < 1e-6);
  Array.iter
    (fun xi -> Alcotest.(check (float 1e-2)) "arg" 1.5 xi)
    x

let test_spsa_improves () =
  let _, trace = Optimize.spsa ~iterations:300 quadratic [| 0.0; 0.0 |] in
  Alcotest.(check bool) "improved" true
    (trace.Optimize.best_value < quadratic [| 0.0; 0.0 |])

let test_spsa_deterministic () =
  let x1, _ = Optimize.spsa ~seed:5 ~iterations:50 quadratic [| 0.0 |] in
  let x2, _ = Optimize.spsa ~seed:5 ~iterations:50 quadratic [| 0.0 |] in
  Alcotest.(check bool) "same" true (x1 = x2)

(* --- batch evaluation --- *)

(* [Vqe.energies] routes through [Ansatz.bind_batch] (one Angle arena
   snapshot for the whole batch); the energies must be bit-for-bit equal
   to evaluating each point sequentially. *)
let test_energies_batch_equals_sequential () =
  let problem = Vqe.uccsd_problem Fermion.Jordan_wigner h2_spec in
  let arity = Ansatz.num_parameters problem.Vqe.ansatz in
  let tmpl = Ansatz.template problem.Vqe.ansatz in
  let thetas =
    List.init 5 (fun s ->
        Array.init arity (fun k -> 0.17 +. (0.31 *. float ((s * arity) + k))))
  in
  let batch = Vqe.energies problem tmpl thetas in
  let sequential =
    List.map
      (fun theta -> Vqe.energy_of_circuit problem (Ansatz.bind tmpl theta))
      thetas
  in
  Alcotest.(check int) "batch length" (List.length thetas) (List.length batch);
  List.iteri
    (fun k (want, got) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "energy %d bit-identical" k)
        want got)
    (List.combine sequential batch)

(* --- the full loop --- *)

let test_vqe_recovers_correlation () =
  let problem = Vqe.uccsd_problem Fermion.Jordan_wigner h2_spec in
  let reference =
    Vqe.energy problem (Array.make (Ansatz.num_parameters problem.Vqe.ansatz) 0.0)
  in
  let exact = Vqe.exact_ground_energy problem in
  Alcotest.(check bool) "reference above exact" true (reference >= exact -. 1e-9);
  let outcome = Vqe.minimize ~optimizer:`Nelder_mead ~iterations:300 problem in
  Alcotest.(check bool) "improves on reference" true
    (outcome.Vqe.energy <= reference +. 1e-9);
  (* variational principle: never below exact *)
  Alcotest.(check bool) "variational bound" true
    (outcome.Vqe.energy >= exact -. 1e-6);
  (* recovers most of the correlation energy *)
  let recovered = (reference -. outcome.Vqe.energy) /. (reference -. exact) in
  Alcotest.(check bool) "≥ 90% correlation" true (recovered > 0.9)

let () =
  Alcotest.run "vqe"
    [
      ( "electronic-structure",
        [
          Alcotest.test_case "synthetic builds" `Quick test_es_hermitian_terms;
          Alcotest.test_case "rejects asymmetric" `Quick test_es_rejects_asymmetric;
          Alcotest.test_case "JW/BK isospectral" `Quick test_es_jw_bk_isospectral;
          Alcotest.test_case "hubbard structure" `Quick test_hubbard_structure;
        ] );
      ( "ansatz",
        [
          Alcotest.test_case "parameters" `Quick test_ansatz_parameters;
          Alcotest.test_case "zero = identity" `Quick
            test_ansatz_zero_parameters_identity;
        ] );
      ( "optimizers",
        [
          Alcotest.test_case "nelder-mead" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "spsa improves" `Quick test_spsa_improves;
          Alcotest.test_case "spsa deterministic" `Quick test_spsa_deterministic;
        ] );
      ( "batch",
        [
          Alcotest.test_case "energies == sequential" `Quick
            test_energies_batch_equals_sequential;
        ] );
      ( "loop",
        [
          Alcotest.test_case "recovers correlation" `Slow
            test_vqe_recovers_correlation;
        ] );
    ]
