module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry

type side = { cnots : int; depth_2q : int; swaps : int; overhead : float }

type row = { label : string; pauli : int; qan2 : side; phoenix : side }

let run () =
  let options =
    {
      Compiler.default_options with
      target = Compiler.Hardware (Workloads.heavy_hex ());
    }
  in
  List.map
    (fun (case : Workloads.qaoa_case) ->
      let logical_cnots = 2 * List.length case.Workloads.qgadgets in
      let side entry =
        let r =
          Registry.compile_gadgets ~options entry case.Workloads.qn
            case.Workloads.qgadgets
        in
        {
          cnots = r.Compiler.two_q_count;
          depth_2q = r.Compiler.depth_2q;
          swaps = r.Compiler.num_swaps;
          overhead = Metrics.ratio r.Compiler.two_q_count logical_cnots;
        }
      in
      let qan2 = side Registry.qan2 in
      let phoenix = side Registry.phoenix in
      {
        label = case.Workloads.qlabel;
        pauli = List.length case.Workloads.qgadgets;
        qan2;
        phoenix;
      })
    (Workloads.qaoa_suite ())

let paper =
  [
    "Rand-16", (32, 168, 85, 37, 2.62), (150, 52, 29, 2.34);
    "Rand-20", (40, 217, 85, 47, 2.71), (187, 49, 39, 2.34);
    "Rand-24", (48, 274, 100, 63, 2.85), (257, 67, 56, 2.68);
    "Reg3-16", (24, 149, 61, 44, 3.10), (99, 28, 17, 2.06);
    "Reg3-20", (30, 172, 46, 46, 2.87), (128, 30, 23, 2.13);
    "Reg3-24", (36, 218, 62, 62, 3.03), (158, 34, 30, 2.19);
  ]

let print fmt rows =
  Format.fprintf fmt
    "@[<v>== Table IV: QAOA vs 2QAN-like on heavy-hex (measured | paper) ==@,";
  Format.fprintf fmt "%-10s %-7s %-23s %-23s %-19s %-19s@," "Bench." "#Pauli"
    "#CNOT (2QAN|PHX)" "Depth-2Q (2QAN|PHX)" "#SWAP (2QAN|PHX)"
    "Overhead (2QAN|PHX)";
  List.iter
    (fun r ->
      let (pp, qc, qd, qs, qo), (pc, pd, ps, po) =
        match List.assoc_opt r.label (List.map (fun (l, a, b) -> l, (a, b)) paper) with
        | Some (a, b) -> a, b
        | None -> (0, 0, 0, 0, 0.0), (0, 0, 0, 0.0)
      in
      ignore pp;
      Format.fprintf fmt
        "%-10s %-7d %4d|%-4d (%3d|%-3d) %4d|%-4d (%3d|%-3d) %3d|%-3d (%2d|%-2d) %.2fx|%.2fx (%.2f|%.2f)@,"
        r.label r.pauli r.qan2.cnots r.phoenix.cnots qc pc r.qan2.depth_2q
        r.phoenix.depth_2q qd pd r.qan2.swaps r.phoenix.swaps qs ps
        r.qan2.overhead r.phoenix.overhead qo po)
    rows;
  (* average improvements, as in the paper's last row *)
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  let impr pick =
    avg (fun r -> 1.0 -. (float_of_int (pick r.phoenix) /. float_of_int (pick r.qan2)))
  in
  Format.fprintf fmt
    "Avg. improv. (measured | paper): #CNOT -%s|-16.7%%  Depth-2Q -%s|-40.8%%  #SWAP -%s|-29.4%%@,"
    (Metrics.pct (impr (fun s -> s.cnots)))
    (Metrics.pct (impr (fun s -> s.depth_2q)))
    (Metrics.pct (impr (fun s -> s.swaps)));
  Format.fprintf fmt "@]@."
