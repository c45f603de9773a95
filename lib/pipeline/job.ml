module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Hamiltonian = Phoenix_ham.Hamiltonian
module Topology = Phoenix_topology.Topology
module Circuit_lint = Phoenix_analysis.Circuit_lint
module Analyses = Phoenix_analysis.Registry
module Resilience_lint = Phoenix_analysis.Resilience_lint
module Diag = Phoenix_verify.Diag
module Structural = Phoenix_verify.Structural

type t = {
  entry : Registry.entry;
  hamiltonian : Hamiltonian.t;
  options : Compiler.options;
}

(* Each named device, sized for an [n]-qubit register. *)
let topologies =
  [
    ("all-to-all", fun _ -> None);
    ("heavy-hex", fun _ -> Some (Topology.ibm_manhattan ()));
    ("line", fun n -> Some (Topology.line (max n 2)));
    ("ring", fun n -> Some (Topology.ring (max n 3)));
    ( "grid",
      fun n ->
        let side = int_of_float (ceil (sqrt (float_of_int n))) in
        Some (Topology.grid ~rows:side ~cols:side) );
  ]

let find_pipeline name =
  match Registry.find name with
  | Some entry -> Ok entry
  | None ->
    Error
      (Printf.sprintf "unknown pipeline %S (%s)" name
         (String.concat ", " (Registry.names ())))

let resolve ?isa ?exact ?verify ?cache ?domains ?budget ~pipeline ~topology h =
  let d = Compiler.default_options in
  match List.assoc_opt topology topologies with
  | None ->
    Error
      (Printf.sprintf "unknown topology %S (%s)" topology
         (String.concat ", " (List.map fst topologies)))
  | Some device -> (
    let device = device (Hamiltonian.num_qubits h) in
    match find_pipeline pipeline with
    | Error _ as e -> e
    | Ok entry ->
      if entry.Registry.requires_topology && device = None then
        Error
          (Printf.sprintf "the %s pipeline needs a topology" entry.Registry.name)
      else if entry.Registry.two_local_only && Hamiltonian.max_weight h > 2
      then
        Error
          (Printf.sprintf "the %s pipeline only handles 2-local workloads"
             entry.Registry.name)
      else
        Ok
          {
            entry;
            hamiltonian = h;
            options =
              {
                d with
                Compiler.isa = Option.value isa ~default:d.Compiler.isa;
                exact = Option.value exact ~default:d.Compiler.exact;
                verify = Option.value verify ~default:d.Compiler.verify;
                cache = Option.value cache ~default:d.Compiler.cache;
                domains = Option.value domains ~default:d.Compiler.domains;
                budget = Option.value budget ~default:d.Compiler.budget;
                target =
                  (match device with
                  | None -> Compiler.Logical
                  | Some t -> Compiler.Hardware t);
              };
          })

let topology job =
  match job.options.Compiler.target with
  | Compiler.Hardware t -> Some t
  | Compiler.Logical -> None

let program job =
  Registry.program ~tau:job.options.Compiler.tau job.entry job.hamiltonian

let lint_target ?program job (report : Compiler.report) circuit =
  Circuit_lint.target
    ~isa:(Pass.structural_isa job.options.Compiler.isa)
    ?topology:(topology job)
    ~declared:
      {
        Circuit_lint.two_q = report.Compiler.two_q_count;
        depth_2q = report.Compiler.depth_2q;
        one_q = report.Compiler.one_q_count;
      }
    ?program:
      (Option.map
         (fun gadgets -> (Hamiltonian.num_qubits job.hamiltonian, gadgets))
         program)
    ~exact:job.options.Compiler.exact ?layout:report.Compiler.layout circuit

let lint ?program job report circuit =
  Analyses.run (lint_target ?program job report circuit)
  @ Resilience_lint.conformance report

let structural job circuit =
  Structural.validate
    ~isa:(Pass.structural_isa job.options.Compiler.isa)
    ?topology:(topology job) circuit

let check_bound ~lint:linting job (report : Compiler.report) circuit =
  let diagnostics =
    if not job.options.Compiler.verify then []
    else
      report.Compiler.diagnostics
      @
      match structural job circuit with
      | [] ->
        [
          Diag.make ~pass:"structural" Diag.Info
            (if topology job = None then "ISA alphabet, qubit range verified"
             else
               "ISA alphabet, qubit range and coupling-graph compliance \
                verified");
        ]
      | violations -> violations
  in
  (diagnostics, if linting then lint job report circuit else [])
