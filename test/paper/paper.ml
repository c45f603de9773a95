(* Golden paper tables: prints the deterministic paper artifacts at the
   quick UCCSD labels, with no timing lines, so the dune rule beside
   this file can diff them against [paper.expected].

   Left out: fig8 and fidelity, whose infidelities and success
   probabilities depend on the platform's libm.

   To refresh the expected file after an intended output change:
     dune build @test/paper/runtest --auto-promote *)

module E = Phoenix_experiments

let fmt = Format.std_formatter
let labels = E.Workloads.uccsd_quick_labels

let artifact name f =
  Format.fprintf fmt "@.>>> %s@." name;
  f ()

let () =
  artifact "table1" (fun () -> E.Table1.print fmt (E.Table1.run ~labels ()));
  artifact "fig5" (fun () -> E.Fig5.print fmt (E.Fig5.run ~labels ()));
  artifact "fig6" (fun () -> E.Fig6.print fmt (E.Fig6.run ~labels ()));
  artifact "table3" (fun () -> E.Table3.print fmt (E.Table3.run ~labels ()));
  artifact "table4" (fun () -> E.Table4.print fmt (E.Table4.run ()));
  artifact "ablations" (fun () ->
      E.Ablations.print fmt
        (E.Ablations.run_uccsd ~labels ())
        (E.Ablations.run_qaoa_router ()))
