module Hamiltonian = Phoenix_ham.Hamiltonian

type uccsd_case = {
  label : string;
  n : int;
  gadget_blocks : (Phoenix_pauli.Pauli_string.t * float) list list;
}

let gadgets c = List.concat c.gadget_blocks

let uccsd_suite ?labels () =
  let wanted b =
    match labels with
    | None -> true
    | Some ls -> List.mem b.Phoenix_ham.Molecules.label ls
  in
  List.filter_map
    (fun b ->
      if not (wanted b) then None
      else begin
        let h =
          Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
            b.Phoenix_ham.Molecules.spec
        in
        let blocks =
          match Hamiltonian.gadget_blocks h with
          | Some blocks -> blocks
          | None -> [ Hamiltonian.trotter_gadgets h ]
        in
        Some
          {
            label = b.Phoenix_ham.Molecules.label;
            n = Hamiltonian.num_qubits h;
            gadget_blocks = blocks;
          }
      end)
    Phoenix_ham.Molecules.table1_suite

let uccsd_quick_labels =
  [ "LiH_frz_BK"; "LiH_frz_JW"; "NH_frz_BK"; "NH_frz_JW" ]

type qaoa_case = {
  qlabel : string;
  qn : int;
  graph : Phoenix_ham.Graphs.t;
  qgadgets : (Phoenix_pauli.Pauli_string.t * float) list;
}

let qaoa_suite () =
  List.map
    (fun (qlabel, graph) ->
      let h = Phoenix_ham.Qaoa.maxcut_cost ~gamma:0.8 graph in
      {
        qlabel;
        qn = Phoenix_ham.Graphs.num_vertices graph;
        graph;
        qgadgets = Hamiltonian.trotter_gadgets h;
      })
    (Phoenix_ham.Qaoa.benchmark_suite ())

let heavy_hex () = Phoenix_topology.Topology.ibm_manhattan ()
