module Circuit = Phoenix_circuit.Circuit
module Registry = Phoenix_pipeline.Registry

type row = {
  label : string;
  qubits : int;
  pauli : int;
  w_max : int;
  gates : int;
  cnots : int;
  depth : int;
  depth_2q : int;
}

let paper =
  [
    "CH2_cmplt_BK", (14, 1488, 10, 37780, 19574, 23568, 19399);
    "CH2_cmplt_JW", (14, 1488, 14, 34280, 21072, 23700, 19749);
    "CH2_frz_BK", (12, 828, 10, 19880, 10228, 12559, 10174);
    "CH2_frz_JW", (12, 828, 12, 17658, 10344, 11914, 9706);
    "H2O_cmplt_BK", (14, 1000, 10, 25238, 13108, 15797, 12976);
    "H2O_cmplt_JW", (14, 1000, 14, 23210, 14360, 16264, 13576);
    "H2O_frz_BK", (12, 640, 10, 15624, 8004, 9691, 7934);
    "H2O_frz_JW", (12, 640, 12, 13704, 8064, 9332, 7613);
    "LiH_cmplt_BK", (12, 640, 10, 16762, 8680, 10509, 8637);
    "LiH_cmplt_JW", (12, 640, 12, 13700, 8064, 9342, 7616);
    "LiH_frz_BK", (10, 144, 9, 2890, 1442, 1868, 1438);
    "LiH_frz_JW", (10, 144, 10, 2850, 1616, 1985, 1576);
    "NH_cmplt_BK", (12, 640, 10, 15624, 8004, 9691, 7934);
    "NH_cmplt_JW", (12, 640, 12, 13704, 8064, 9332, 7613);
    "NH_frz_BK", (10, 360, 9, 8303, 4178, 5214, 4160);
    "NH_frz_JW", (10, 360, 10, 7046, 3896, 4640, 3674);
  ]

let run ?labels () =
  List.map
    (fun (case : Workloads.uccsd_case) ->
      let gadgets = Workloads.gadgets case in
      let circuit =
        (Registry.compile_gadgets Registry.naive case.Workloads.n gadgets)
          .Phoenix.Compiler.circuit
      in
      let w_max =
        List.fold_left
          (fun acc (p, _) -> max acc (Phoenix_pauli.Pauli_string.weight p))
          0 gadgets
      in
      {
        label = case.Workloads.label;
        qubits = case.Workloads.n;
        pauli = List.length gadgets;
        w_max;
        gates = Circuit.length circuit;
        cnots = Circuit.count_cnot circuit;
        depth = Circuit.depth circuit;
        depth_2q = Circuit.depth_2q circuit;
      })
    (Workloads.uccsd_suite ?labels ())

let print fmt rows =
  Format.fprintf fmt
    "@[<v>== Table I: UCCSD benchmark suite (measured | paper) ==@,";
  Format.fprintf fmt
    "%-14s %-9s %-11s %-8s %-15s %-15s %-15s %-15s@," "Benchmark" "#Qubit"
    "#Pauli" "w_max" "#Gate" "#CNOT" "Depth" "Depth-2Q";
  List.iter
    (fun r ->
      let pq, pp, pw, pg, pc, pd, pd2 =
        match List.assoc_opt r.label paper with
        | Some v -> v
        | None -> 0, 0, 0, 0, 0, 0, 0
      in
      Format.fprintf fmt
        "%-14s %2d|%-6d %4d|%-6d %2d|%-5d %6d|%-8d %6d|%-8d %6d|%-8d %6d|%-8d@,"
        r.label r.qubits pq r.pauli pp r.w_max pw r.gates pg r.cnots pc
        r.depth pd r.depth_2q pd2)
    rows;
  Format.fprintf fmt "@]@."
