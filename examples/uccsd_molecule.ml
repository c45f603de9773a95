(* Molecular simulation: build a UCCSD ansatz for LiH (frozen core) under
   both fermionic encodings, compile it with every compiler in the
   repository, and report the paper's metrics.

     dune exec examples/uccsd_molecule.exe *)

module Hamiltonian = Phoenix_ham.Hamiltonian
module Molecules = Phoenix_ham.Molecules
module Uccsd = Phoenix_ham.Uccsd
module Fermion = Phoenix_ham.Fermion
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Circuit = Phoenix_circuit.Circuit

let describe label (h : Hamiltonian.t) =
  Printf.printf "%s: %d qubits, %d Pauli strings, max weight %d\n" label
    (Hamiltonian.num_qubits h) (Hamiltonian.num_terms h)
    (Hamiltonian.max_weight h)

let compare_compilers h =
  let n = Hamiltonian.num_qubits h in
  let report name (r : Compiler.report) =
    Printf.printf "  %-18s #CNOT %-6d Depth-2Q %-6d\n" name
      (Circuit.count_cnot r.Compiler.circuit) r.Compiler.depth_2q
  in
  (* naive and TKET-like compile the flat Trotter program *)
  report "original" (Registry.compile Registry.naive h);
  report "TKET-like" (Registry.compile Registry.tket h);
  (match Hamiltonian.gadget_blocks h with
  | Some gblocks ->
    let blocked entry = Registry.compile_blocks entry n gblocks in
    report "Paulihedral-like" (blocked Registry.paulihedral);
    report "Tetris-like" (blocked Registry.tetris)
  | None -> ());
  let r = Registry.compile Registry.phoenix h in
  Printf.printf "  %-18s #CNOT %-6d Depth-2Q %-6d (%d IR groups, %.2fs)\n"
    "PHOENIX" r.Compiler.two_q_count r.Compiler.depth_2q r.Compiler.num_groups
    r.Compiler.wall_time;
  (* SU(4) ISA: Clifford sandwiches and cores fuse into native 2Q blocks *)
  let su4 =
    Registry.compile
      ~options:{ Compiler.default_options with isa = Compiler.Su4_isa }
      Registry.phoenix h
  in
  Printf.printf "  %-18s #SU4  %-6d Depth-2Q %-6d\n" "PHOENIX (SU4 ISA)"
    su4.Compiler.two_q_count su4.Compiler.depth_2q

let () =
  let spec = Molecules.frozen Molecules.lih in
  List.iter
    (fun enc ->
      let h = Uccsd.ansatz enc spec in
      describe
        (Printf.sprintf "LiH frozen-core / %s" (Fermion.encoding_to_string enc))
        h;
      compare_compilers h;
      print_newline ())
    [ Fermion.Jordan_wigner; Fermion.Bravyi_kitaev ];

  (* Hardware-aware compilation onto the 64-qubit heavy-hex device. *)
  let topo = Phoenix_topology.Topology.ibm_manhattan () in
  let h = Uccsd.ansatz Fermion.Jordan_wigner spec in
  let r =
    Registry.compile
      ~options:{ Compiler.default_options with target = Compiler.Hardware topo }
      Registry.phoenix h
  in
  Printf.printf
    "LiH JW on heavy-hex-64: #CNOT %d (logical %d, %.1fx), Depth-2Q %d, %d SWAPs\n"
    r.Compiler.two_q_count r.Compiler.logical_two_q
    (float_of_int r.Compiler.two_q_count /. float_of_int r.Compiler.logical_two_q)
    r.Compiler.depth_2q r.Compiler.num_swaps
