(* QAOA for MaxCut: generate a random 3-regular graph, build the cost
   layer, and compare PHOENIX's hardware-aware compilation against the
   2QAN-style baseline on the heavy-hex device.

     dune exec examples/qaoa_maxcut.exe *)

module Graphs = Phoenix_ham.Graphs
module Qaoa = Phoenix_ham.Qaoa
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry

let () =
  let n = 16 in
  let graph = Graphs.random_regular ~seed:42 ~degree:3 n in
  Printf.printf "graph: %d vertices, %d edges, connected=%b\n" n
    (Graphs.num_edges graph) (Graphs.is_connected graph);

  let cost = Qaoa.maxcut_cost ~gamma:0.7 graph in
  let options =
    {
      Compiler.default_options with
      target = Compiler.Hardware (Phoenix_topology.Topology.ibm_manhattan ());
    }
  in
  let show name entry =
    let r = Registry.compile ~options entry cost in
    Printf.printf "%-10s: #CNOT %-4d Depth-2Q %-4d #SWAP %d\n" name
      r.Compiler.two_q_count r.Compiler.depth_2q r.Compiler.num_swaps
  in
  (* 2QAN-style baseline *)
  show "2QAN-like" Registry.qan2;
  (* PHOENIX: the cost layer is Z-diagonal, so the commuting-aware router
     reorders interactions freely *)
  show "PHOENIX" Registry.phoenix;

  (* The full alternating ansatz (cost + mixer layers) also compiles;
     at the logical level its 2Q count is fixed, the interest is depth. *)
  let ansatz = Qaoa.ansatz ~seed:7 ~layers:2 graph in
  let logical = Registry.compile Registry.phoenix ansatz in
  Printf.printf
    "2-layer ansatz (logical): #CNOT %d, Depth-2Q %d (lower bound %d = 2·edges·layers/⌊n/2⌋)\n"
    logical.Compiler.two_q_count logical.Compiler.depth_2q
    (2 * 2 * Graphs.num_edges graph / (n / 2))
