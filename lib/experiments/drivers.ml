module Circuit = Phoenix_circuit.Circuit
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry

type compiler = Naive | Tket | Paulihedral | Tetris | Phoenix_c

let compiler_name = function
  | Naive -> "original"
  | Tket -> "TKET-like"
  | Paulihedral -> "Paulihedral-like"
  | Tetris -> "Tetris-like"
  | Phoenix_c -> "PHOENIX"

let entry = function
  | Naive -> Registry.naive
  | Tket -> Registry.tket
  | Paulihedral -> Registry.paulihedral
  | Tetris -> Registry.tetris
  | Phoenix_c -> Registry.phoenix

type isa = Cnot | Su4

type outcome = {
  counts : Metrics.counts;
  swaps : int;
  logical_two_q : int;
}

let options ?(o3 = true) ~isa ~target () =
  {
    Compiler.default_options with
    isa = (match isa with Cnot -> Compiler.Cnot_isa | Su4 -> Compiler.Su4_isa);
    target;
    peephole = o3;
  }

(* Every compiler — PHOENIX and baselines alike — runs through the
   pipeline registry; the baseline entries end with the shared SABRE
   routing + ISA lowering tail on hardware targets, which is exactly the
   treatment the paper's baseline columns get. *)
let run ~options ~logical compiler n blocks =
  let r = Registry.compile_blocks ~options (entry compiler) n blocks in
  {
    counts =
      {
        Metrics.gates = Circuit.length r.Compiler.circuit;
        two_q = r.Compiler.two_q_count;
        depth = Circuit.depth r.Compiler.circuit;
        depth_2q = r.Compiler.depth_2q;
      };
    swaps = r.Compiler.num_swaps;
    logical_two_q =
      (if logical then r.Compiler.two_q_count else r.Compiler.logical_two_q);
  }

let run_logical ?o3 ~isa compiler n blocks =
  run ~options:(options ?o3 ~isa ~target:Compiler.Logical ()) ~logical:true
    compiler n blocks

let run_hardware ?o3 ~isa topo compiler n blocks =
  run
    ~options:(options ?o3 ~isa ~target:(Compiler.Hardware topo) ())
    ~logical:false compiler n blocks
