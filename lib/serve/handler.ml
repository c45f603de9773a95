module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Template = Phoenix.Template
module Budget = Phoenix_util.Budget
module Circuit = Phoenix_circuit.Circuit
module Qasm = Phoenix_circuit.Qasm
module Peephole = Phoenix_circuit.Peephole
module Diag = Phoenix_verify.Diag
module Structural = Phoenix_verify.Structural
module Finding = Phoenix_analysis.Finding
module Circuit_lint = Phoenix_analysis.Circuit_lint
module Analyses = Phoenix_analysis.Registry
module Pipelines = Phoenix_pipeline.Registry
module Job = Phoenix_pipeline.Job
module Hooks = Phoenix_pipeline.Hooks
open Protocol

type outcome = {
  status : Protocol.status;
  fields : (string * Json.t) list;
  error : string option;
  trace : Pass.trace;
}

let ok ?(trace = []) fields = { status = Sok; fields; error = None; trace }

let fail ?(trace = []) status msg =
  { status; fields = []; error = Some msg; trace }

let bad_request msg = fail Sbad_request msg

let budget_of_spec ~default_timeout_s spec =
  match (spec.budget_checks, spec.timeout_s, default_timeout_s) with
  | Some k, _, _ -> Budget.after_checks k
  | None, Some s, _ | None, None, Some s -> Budget.of_timeout_s s
  | None, None, None -> Budget.none

let metrics_json c =
  Json.Obj
    [
      ("two_q", Json.Num (Float.of_int (Circuit.count_2q c)));
      ("one_q", Json.Num (Float.of_int (Circuit.count_1q c)));
      ("depth_2q", Json.Num (Float.of_int (Circuit.depth_2q c)));
      ("depth", Json.Num (Float.of_int (Circuit.depth c)));
    ]

(* --- qasm jobs: parse, peephole, re-validate ---------------------------- *)

let execute_qasm spec text =
  match Qasm.of_string text with
  | exception Invalid_argument msg -> bad_request msg
  | parsed ->
    let circuit = Peephole.optimize parsed in
    let diagnostics =
      if spec.verify then
        (* imports are restricted to the CNOT alphabet by construction *)
        Structural.validate ~isa:Structural.Cnot_basis circuit
      else []
    in
    let findings =
      if spec.lint then
        Analyses.run (Circuit_lint.target ~isa:Circuit_lint.Cnot_basis circuit)
      else []
    in
    let status =
      if spec.verify && Diag.has_errors diagnostics then Sverify_errors
      else if spec.lint && Finding.has_errors findings then Slint_errors
      else Sok
    in
    {
      status;
      fields =
        [
          ("kind", Json.Str "qasm");
          ("circuit", circuit_json ~dump:spec.dump circuit);
          ("metrics", metrics_json circuit);
          ("diagnostics", Json.Arr (List.map diag_json diagnostics));
          ("findings", Json.Arr (List.map finding_json findings));
        ];
      error = None;
      trace = [];
    }

(* --- hamiltonian jobs --------------------------------------------------- *)

let execute_template spec (job : Job.t) =
  match
    Pipelines.compile_template ~options:job.Job.options ~protect:true
      job.Job.entry job.Job.hamiltonian
  with
  | Error msg -> bad_request msg
  | Ok tmpl -> (
    let report = Template.report tmpl in
    match Template.bind_batch tmpl spec.binds with
    | exception Invalid_argument msg -> bad_request msg
    | bound ->
      ok ~trace:report.Compiler.trace
        [
          ("kind", Json.Str "template");
          ( "params",
            Json.Arr
              (Array.to_list
                 (Array.map (fun p -> Json.Str p) (Template.params tmpl))) );
          ( "slots",
            Json.Num (Float.of_int (Template.slot_count tmpl)) );
          ("report", report_json report);
          ( "binds",
            Json.Arr (List.map (circuit_json ~dump:spec.dump) bound) );
        ])

let execute_compile spec (job : Job.t) =
  let hook_findings = ref [] and hook_diags = ref [] in
  let hooks =
    (if spec.lint then [ Hooks.lint hook_findings ] else [])
    @ if spec.verify then [ Hooks.translation_validate hook_diags ] else []
  in
  let report =
    Pipelines.compile ~options:job.Job.options ~protect:true ~hooks
      job.Job.entry job.Job.hamiltonian
  in
  let circuit = report.Compiler.circuit in
  let diagnostics =
    if spec.verify then report.Compiler.diagnostics @ List.rev !hook_diags
    else []
  in
  let findings =
    if spec.lint then
      Job.lint ~program:(Job.program job).Compiler.chunk_gadgets job report
        circuit
      @ List.map snd (List.rev !hook_findings)
    else []
  in
  let status =
    if spec.verify && Diag.has_errors diagnostics then Sverify_errors
    else if spec.lint && Finding.has_errors findings then Slint_errors
    else Sok
  in
  {
    status;
    fields =
      [
        ("kind", Json.Str "compile");
        ("pipeline", Json.Str job.Job.entry.Pipelines.name);
        ("circuit", circuit_json ~dump:spec.dump circuit);
        ("report", report_json report);
        ("diagnostics", Json.Arr (List.map diag_json diagnostics));
        ("findings", Json.Arr (List.map finding_json findings));
      ];
    error = None;
    trace = report.Compiler.trace;
  }

let execute_hamiltonian ~default_timeout_s spec h =
  match
    Job.resolve ~isa:spec.isa ~exact:spec.exact ~verify:spec.verify
      ~cache:spec.cache ~domains:spec.domains
      ~budget:(budget_of_spec ~default_timeout_s spec)
      ~pipeline:spec.pipeline ~topology:spec.topology h
  with
  | Error msg -> bad_request msg
  | Ok job ->
    if spec.template then execute_template spec job
    else execute_compile spec job

let execute ?default_timeout_s spec =
  let job () =
    match spec.source with
    | Qasm text -> execute_qasm spec text
    | Builtin name -> (
      match Workload.of_spec name with
      | Error msg -> bad_request msg
      | Ok h -> execute_hamiltonian ~default_timeout_s spec h)
    | Inline text -> (
      match Workload.of_inline text with
      | Error msg -> bad_request msg
      | Ok h -> execute_hamiltonian ~default_timeout_s spec h)
  in
(* Fail closed at the job boundary: a worker must outlive any job,
     including chaos-injected faults raised outside a protected pass. *)
  match job () with
  | outcome -> outcome
  | exception Pass.Interrupted { pass; reason = Budget.Deadline } ->
    fail Sdeadline
      (Printf.sprintf "deadline exceeded in pass %s with no fallback" pass)
  | exception Pass.Interrupted { pass; reason = Budget.Cancelled } ->
    fail Sfailed (Printf.sprintf "job cancelled in pass %s" pass)
  | exception Budget.Interrupted Budget.Deadline ->
    fail Sdeadline "deadline exceeded with no fallback"
  | exception Budget.Interrupted Budget.Cancelled -> fail Sfailed "job cancelled"
  | exception Pass.Failed { pass; error } ->
    fail Sfailed (Printf.sprintf "pass %s failed closed: %s" pass error)
  | exception exn ->
    fail Sfailed ("worker fault: " ^ Printexc.to_string exn)

let response ~id { status; fields; error; trace = _ } =
  ok_response ~id ~status ?error fields
