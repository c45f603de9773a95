(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§V).  Compile-time measurement lives in the repository
   benchmark (bench/suite, BENCHMARK.json).

     dune exec bench/main.exe                 - everything
     dune exec bench/main.exe -- table1       - one artifact
     dune exec bench/main.exe -- fig5 --quick - reduced benchmark subset

   Artifacts: table1, fig5 (incl. Table II), fig6, table3, table4
   (incl. Fig. 7), fig8, ablations, fidelity. *)

module E = Phoenix_experiments
module Clock = Phoenix_util.Clock

let fmt = Format.std_formatter

let labels ~quick =
  if quick then Some E.Workloads.uccsd_quick_labels else None

let run_table1 ~quick =
  E.Table1.print fmt (E.Table1.run ?labels:(labels ~quick) ())

let run_fig5 ~quick = E.Fig5.print fmt (E.Fig5.run ?labels:(labels ~quick) ())
let run_fig6 ~quick = E.Fig6.print fmt (E.Fig6.run ?labels:(labels ~quick) ())

let run_table3 ~quick =
  E.Table3.print fmt (E.Table3.run ?labels:(labels ~quick) ())

let run_table4 ~quick:_ = E.Table4.print fmt (E.Table4.run ())

let run_fidelity ~quick =
  E.Fidelity.print fmt (E.Fidelity.run ?labels:(labels ~quick) ())

let run_ablations ~quick =
  E.Ablations.print fmt
    (E.Ablations.run_uccsd ?labels:(labels ~quick) ())
    (E.Ablations.run_qaoa_router ())

let run_fig8 ~quick =
  let scales = if quick then [ 0.1; 0.8 ] else E.Fig8.default_scales in
  let molecules =
    if quick then [ "LiH_reduced" ] else [ "LiH_reduced"; "NH_reduced" ]
  in
  E.Fig8.print fmt (E.Fig8.run ~scales ~molecules ())

let artifacts =
  [
    "table1", run_table1;
    "fig5", run_fig5;
    "fig6", run_fig6;
    "table3", run_table3;
    "table4", run_table4;
    "fig8", run_fig8;
    "ablations", run_ablations;
    "fidelity", run_fidelity;
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let to_run =
    match wanted with
    | [] -> artifacts
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> name, f
          | None ->
            Printf.eprintf "unknown artifact %S (available: %s)\n" name
              (String.concat ", " (List.map fst artifacts));
            exit 2)
        names
  in
  List.iter
    (fun (name, f) ->
      Format.fprintf fmt "@.>>> %s@." name;
      (* Wall clock, not [Sys.time]: CPU seconds sum over domains and
         overstate elapsed time once compilation is parallel. *)
      let t0 = Clock.monotonic_s () in
      f ~quick;
      Format.fprintf fmt "<<< %s done in %.1fs (wall)@." name
        (Clock.monotonic_s () -. t0))
    to_run
