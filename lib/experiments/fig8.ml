module Hamiltonian = Phoenix_ham.Hamiltonian
module Fermion = Phoenix_ham.Fermion
module Uccsd = Phoenix_ham.Uccsd
module Unitary = Phoenix_linalg.Unitary
module Herm = Phoenix_linalg.Herm
module Fidelity = Phoenix_linalg.Fidelity
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry

type point = { scale : float; tket : float; phoenix : float }

type series = {
  molecule : string;
  encoding : Fermion.encoding;
  points : point list;
}

let default_scales = [ 1.0; 1.6; 3.0; 5.0; 8.0 ]

let spec_of_name = function
  | "LiH_reduced" -> Phoenix_ham.Molecules.lih_reduced
  | "NH_reduced" -> Phoenix_ham.Molecules.nh_reduced
  | name -> invalid_arg (Printf.sprintf "Fig8: unknown molecule %S" name)

let series_for ~scales spec enc =
  let base = Uccsd.ansatz enc spec in
  let n = Hamiltonian.num_qubits base in
  let decomposition =
    Herm.eig (Unitary.hamiltonian_matrix n
                (List.map
                   (fun (t : Phoenix_pauli.Pauli_term.t) ->
                     t.Phoenix_pauli.Pauli_term.pauli,
                     t.Phoenix_pauli.Pauli_term.coeff)
                   (Hamiltonian.terms base)))
  in
  let point scale =
    let h = Hamiltonian.scale scale base in
    let exact = Herm.evolution decomposition scale in
    let gadgets = Hamiltonian.trotter_gadgets h in
    let tket_circuit =
      (Registry.compile_gadgets Registry.tket n gadgets).Compiler.circuit
    in
    let tket = Fidelity.infidelity exact (Unitary.circuit_unitary tket_circuit) in
    let r = Registry.compile Registry.phoenix h in
    let phoenix =
      Fidelity.infidelity exact (Unitary.circuit_unitary r.Compiler.circuit)
    in
    { scale; tket; phoenix }
  in
  {
    molecule = spec.Uccsd.name;
    encoding = enc;
    points = List.map point scales;
  }

let run ?(scales = default_scales) ?(molecules = [ "LiH_reduced"; "NH_reduced" ]) () =
  List.concat_map
    (fun name ->
      let spec = spec_of_name name in
      List.map
        (fun enc -> series_for ~scales spec enc)
        [ Fermion.Jordan_wigner; Fermion.Bravyi_kitaev ])
    molecules

let print fmt series =
  Format.fprintf fmt
    "@[<v>== Fig. 8: algorithmic error (infidelity vs ideal evolution) ==@,";
  Format.fprintf fmt
    "(reduced molecules; see DESIGN.md for the dense-simulation substitution)@,";
  List.iter
    (fun s ->
      Format.fprintf fmt "-- %s / %s --@," s.molecule
        (Fermion.encoding_to_string s.encoding);
      Format.fprintf fmt "  %-8s %-14s %-14s %s@," "scale" "TKET-like"
        "PHOENIX" "PHOENIX better?";
      List.iter
        (fun p ->
          Format.fprintf fmt "  %-8.3g %-14.3e %-14.3e %s@," p.scale p.tket
            p.phoenix
            (if p.phoenix <= p.tket then "yes" else "no"))
        s.points;
      let avg f =
        List.fold_left (fun acc p -> acc +. f p) 0.0 s.points
        /. float_of_int (List.length s.points)
      in
      let reduction = 1.0 -. (avg (fun p -> p.phoenix) /. avg (fun p -> p.tket)) in
      Format.fprintf fmt "  mean error reduction vs TKET-like: %s@,"
        (Metrics.pct reduction))
    series;
  Format.fprintf fmt
    "(paper: 57%%/49.5%% reduction for NH, 42.7%%/34.1%% for LiH, BK/JW)@,";
  Format.fprintf fmt "@]@."
