module Noise = Phoenix_circuit.Noise
module Registry = Phoenix_pipeline.Registry

type row = {
  label : string;
  per_compiler : (Drivers.compiler * float) list;
}

let compilers =
  [
    Drivers.Naive;
    Drivers.Tket;
    Drivers.Paulihedral;
    Drivers.Tetris;
    Drivers.Phoenix_c;
  ]

(* Naive and TKET-like ignore the blocks and compile the flat program. *)
let circuit_for compiler n blocks =
  (Registry.compile_blocks (Drivers.entry compiler) n blocks)
    .Phoenix.Compiler.circuit

let run ?labels () =
  List.map
    (fun (case : Workloads.uccsd_case) ->
      {
        label = case.Workloads.label;
        per_compiler =
          List.map
            (fun c ->
              ( c,
                Noise.success_probability
                  (circuit_for c case.Workloads.n case.Workloads.gadget_blocks)
              ))
            compilers;
      })
    (Workloads.uccsd_suite ?labels ())

let print fmt rows =
  Format.fprintf fmt
    "@[<v>== Projected circuit success probability (IBM-like noise model) ==@,";
  Format.fprintf fmt "%-14s" "Benchmark";
  List.iter
    (fun c -> Format.fprintf fmt " %17s" (Drivers.compiler_name c))
    compilers;
  Format.fprintf fmt "@,";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-14s" row.label;
      List.iter
        (fun c -> Format.fprintf fmt " %17.4g" (List.assoc c row.per_compiler))
        compilers;
      Format.fprintf fmt "@,")
    rows;
  Format.fprintf fmt
    "(the compiler with the fewest 2Q gates dominates — the premise of the paper's metrics)@,";
  Format.fprintf fmt "@]@."
