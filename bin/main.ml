(* phoenix — command-line front end.

   Subcommands:
     compile   compile a Hamiltonian file (or builtin workload) and report
               metrics; optionally dump the gate list
     info      describe a builtin workload
     simulate  compile and state-vector-simulate a small workload
     analyze   run the static analyzer over a compiled workload
     certify   compile under the symbolic translation validator and
               report the per-boundary certificate
     passes    list the registered passes and which pipelines use them
     chaos     seeded fault-injection soak over the registered pipelines

   Every compiler — PHOENIX and the baselines — dispatches through the
   pipeline registry (Phoenix_pipeline.Registry), so they all return the
   same report, carry declared metrics for lint certification, and
   support --timings / --trace.

   Exit codes: 0 clean, 2 usage/input error, 3 verification errors
   (--verify), 4 error-severity lint findings or a non-proved
   certificate (--lint / --certify / analyze / certify), 5 deadline
   exceeded with no fallback rung (--timeout). *)

module Hamiltonian = Phoenix_ham.Hamiltonian
module Compiler = Phoenix.Compiler
module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Topology = Phoenix_topology.Topology
module Diag = Phoenix_verify.Diag
module Finding = Phoenix_analysis.Finding
module Registry = Phoenix_analysis.Registry
module Determinism = Phoenix_analysis.Determinism
module Pass = Phoenix.Pass
module Pipelines = Phoenix_pipeline.Registry
module Job = Phoenix_pipeline.Job
module Hooks = Phoenix_pipeline.Hooks
module Cache = Phoenix_cache.Cache
module Cache_audit = Phoenix_analysis.Cache_audit
module Budget = Phoenix_util.Budget
module Chaos = Phoenix_util.Chaos
module Json = Phoenix_util.Json
module Resilience = Phoenix.Resilience
module Resilience_lint = Phoenix_analysis.Resilience_lint
module Template = Phoenix.Template
module Certify = Phoenix_tv.Certify

let read_hamiltonian path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  Hamiltonian.of_lines (go [])

let usage_error msg =
  prerr_endline msg;
  exit 2

let or_usage_error = function Ok x -> x | Error msg -> usage_error msg

(* Builtin workload specifiers now live in Phoenix_serve.Workload so the
   CLI and the serve daemon accept exactly the same grammar. *)
let load source =
  if Sys.file_exists source then read_hamiltonian source
  else begin
    match Phoenix_serve.Workload.of_spec source with
    | Ok h -> h
    | Error _ ->
      Printf.eprintf "no such file or builtin workload: %s\nbuiltins: %s\n"
        source Phoenix_serve.Workload.grammar;
      exit 2
  end

(* --- shared compilation pipeline ----------------------------------------

   Every compile-shaped subcommand loads its source and resolves the
   request through [Job.resolve] — the validation the serve daemon
   applies too — so a bad topology, pipeline or pipeline/workload pair
   is one usage error (exit 2) everywhere.  Every compiler then goes
   through the pipeline registry: one dispatch, one report type,
   declared metrics for certification, pass times and a metric trace
   for all of them. *)

let resolve ?isa ?exact ?verify ?cache ?budget ~compiler ~topology source =
  or_usage_error
    (Job.resolve ?isa ?exact ?verify ?cache ?budget ~pipeline:compiler
       ~topology (load source))

(* The pass-boundary hooks a compile runs under: per-pass lint with
   --lint, translation validation with --verify, the symbolic certifier
   with --certify.  [collect] reads back the first two hooks' output in
   run order. *)
let boundary_hooks ~lint ~verify cert_acc =
  let findings = ref [] and diags = ref [] in
  let hooks =
    (if lint then [ Hooks.lint findings ] else [])
    @ (if verify then [ Hooks.translation_validate diags ] else [])
    @ match cert_acc with Some acc -> [ Hooks.certify acc ] | None -> []
  in
  (hooks, fun () -> (List.rev !findings, List.rev !diags))

type compiled = {
  job : Job.t;
  report : Compiler.report;
  hook_findings : (string * Finding.t) list;
      (** per-pass lint-hook findings (with --lint) *)
  hook_diags : Diag.t list;
      (** pass-boundary translation-validation diagnostics (with
          --verify) *)
}

let compile_job ?(lint = false) ?cert_acc (job : Job.t) =
  let hooks, collect =
    boundary_hooks ~lint ~verify:job.Job.options.Compiler.verify cert_acc
  in
  (* fail closed: any exception escaping a pass re-raises as Pass.Failed
     with the pass named, mapped to a structured exit at top level *)
  let report =
    Pipelines.compile ~options:job.Job.options ~protect:true ~hooks
      job.Job.entry job.Job.hamiltonian
  in
  let hook_findings, hook_diags = collect () in
  { job; report; hook_findings; hook_diags }

let compile_template ?cert_acc (job : Job.t) =
  or_usage_error
    (Pipelines.compile_template ~options:job.Job.options ~protect:true
       ~hooks:(Option.to_list (Option.map Hooks.certify cert_acc))
       ~certified:(cert_acc <> None) job.Job.entry job.Job.hamiltonian)

(* --- fault injection (testing hook) -------------------------------------

   Corrupts the compiled circuit before verification and linting so the
   detection paths (and exit codes 3/4) are exercisable end to end from
   the shell.  Documented as a testing aid; `none` is the default. *)

type fault = No_fault | Out_of_isa | Nan_angle | Zero_angle | Dangling

let inject_fault fault c =
  match fault with
  | No_fault -> c
  | Out_of_isa ->
    Circuit.append c
      (Gate.Rpp
         {
           p0 = Phoenix_pauli.Pauli.X;
           p1 = Phoenix_pauli.Pauli.Z;
           a = 0;
           b = min 1 (Circuit.num_qubits c - 1);
           theta = 0.7;
         })
  | Nan_angle -> Circuit.append c (Gate.G1 (Gate.Rz Float.nan, 0))
  | Zero_angle -> Circuit.append c (Gate.G1 (Gate.Rz 0.0, 0))
  | Dangling -> Circuit.with_num_qubits (Circuit.num_qubits c + 1) c

let fault_enum =
  [
    "none", No_fault;
    "out-of-isa", Out_of_isa;
    "nan-angle", Nan_angle;
    "zero-angle", Zero_angle;
    "dangling", Dangling;
  ]

(* --verify diagnostics of a compiled run: the report's own plus the
   boundary hook's; an injected fault re-validates the mutated circuit
   on top. *)
let verify_diagnostics fault (c : compiled) circuit =
  if not c.job.Job.options.Compiler.verify then []
  else
    c.report.Compiler.diagnostics @ c.hook_diags
    @ if fault = No_fault then [] else Job.structural c.job circuit

let print_diagnostics diags =
  Printf.printf "verify:    %s\n" (Diag.summary diags);
  List.iter (fun d -> Printf.printf "  %s\n" (Diag.to_string d)) diags

let print_findings findings =
  Printf.printf "lint:      %s\n" (Finding.summary findings);
  List.iter (fun f -> Printf.printf "  %s\n" (Finding.to_string f)) findings

let print_hook_findings tagged =
  if tagged <> [] then begin
    Printf.printf "pass lint: %d finding(s) at pass boundaries\n"
      (List.length tagged);
    List.iter
      (fun (pass, f) ->
        Printf.printf "  [after %s] %s\n" pass (Finding.to_string f))
      tagged
  end

let print_certification boundaries =
  let s = Certify.summarize boundaries in
  Printf.printf
    "certify:   %s (%d proved, %d plausible, %d refuted; %.3f ms checking)\n"
    (Certify.overall boundaries)
    s.Certify.proved s.Certify.plausible s.Certify.refuted
    (Certify.total_check_seconds boundaries *. 1e3);
  List.iter
    (fun b -> Printf.printf "  %s\n" (Certify.boundary_to_string b))
    boundaries

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* A JSON artifact is one line, written to FILE or, for "-", to stdout. *)
let write_output path json =
  let text = Json.to_string json ^ "\n" in
  if path = "-" then print_string text else write_file path text

let write_cert ~pipeline ~workload ~template out boundaries =
  Option.iter
    (fun path ->
      write_output path (Certify.to_json ~pipeline ~workload ~template boundaries))
    out

(* One line per executed pass: wall seconds and the words allocated
   inside the pass. *)
let print_timing_entries (entries : Pass.trace) =
  List.iter
    (fun (e : Pass.trace_entry) ->
      Printf.printf "time %-9s %.4fs  alloc %.0fw\n" (e.Pass.pass ^ ":")
        e.Pass.seconds e.Pass.alloc_words)
    entries

let print_cache_stats tier (s : Cache.stats) =
  Printf.printf
    "cache:     tier=%s hits=%d misses=%d disk_hits=%d disk_errors=%d \
     evictions=%d entries=%d bytes=%d\n"
    (Cache.tier_to_string tier) s.Cache.hits s.Cache.misses s.Cache.disk_hits
    s.Cache.disk_errors s.Cache.evictions s.Cache.entries s.Cache.bytes

let print_gates c =
  List.iter (fun g -> print_endline (Gate.to_string g)) (Circuit.gates c)

(* --- the compile report ---------------------------------------------------

   The plain, template and stream modes of `compile` differ in what they
   compile and in their summary block; everything after that block is
   one tail, in one order. *)

type flags = {
  source : string;
  lint : bool;
  certify : bool;
  cert_out : string option;
  timings : bool;
  dump : bool;
  draw : bool;
  qasm_out : string option;
  trace_out : string option;
  cache_stats : bool;
  fault : fault;
}

let write_trace f (job : Job.t) (report : Compiler.report) trace =
  Option.iter
    (fun path ->
      write_output path
        (Pass.trace_json ~compiler:job.Job.entry.Pipelines.name
           ~workload:f.source ~cache:report.Compiler.cache_stats
           ~degradations:report.Compiler.degradations trace))
    f.trace_out

let report_certificate f (job : Job.t) ~template boundaries =
  if f.certify then begin
    print_certification boundaries;
    write_cert ~pipeline:job.Job.entry.Pipelines.name ~workload:f.source
      ~template f.cert_out boundaries
  end

let print_circuit_summary (report : Compiler.report) circuit =
  Printf.printf "qubits:    %d\n" (Circuit.num_qubits circuit);
  Printf.printf "gates:     %d\n" (Circuit.length circuit);
  Printf.printf "1q gates:  %d\n" (Circuit.count_1q circuit);
  Printf.printf "2q gates:  %d\n" (Circuit.count_2q circuit);
  Printf.printf "cnot cost: %d\n" (Circuit.count_cnot circuit);
  Printf.printf "depth:     %d\n" (Circuit.depth circuit);
  Printf.printf "depth-2q:  %d\n" (Circuit.depth_2q circuit);
  Printf.printf "swaps:     %d\n" report.Compiler.num_swaps

(* Print the report tail, write the --qasm/--trace files, then exit 3 on
   verification errors or 4 on lint errors or an unproved certificate.
   [extra_trace] extends the compile's trace (a bind step). *)
let finish f (job : Job.t) ~template ~(report : Compiler.report)
    ?(extra_trace = []) ~diagnostics ~findings ~hook_findings ~certificate
    circuit =
  let verify = job.Job.options.Compiler.verify in
  let trace = report.Compiler.trace @ extra_trace in
  if report.Compiler.degradations <> [] then
    Printf.printf "degraded:  %s\n"
      (Resilience.aggregate_to_string report.Compiler.degradations);
  if f.cache_stats then
    print_cache_stats job.Job.options.Compiler.cache report.Compiler.cache_stats;
  if verify then print_diagnostics diagnostics;
  if f.lint then begin
    print_findings findings;
    print_hook_findings hook_findings
  end;
  report_certificate f job ~template certificate;
  if f.timings then print_timing_entries trace;
  if f.dump then print_gates circuit;
  if f.draw then print_string (Phoenix_circuit.Draw.to_string circuit);
  Option.iter
    (fun path -> write_file path (Phoenix_circuit.Qasm.to_string circuit))
    f.qasm_out;
  write_trace f job report trace;
  if verify && Diag.has_errors diagnostics then exit 3;
  if
    f.lint
    && (Finding.has_errors findings
       || Finding.has_errors (List.map snd hook_findings))
  then exit 4;
  if f.certify && not (Certify.all_proved certificate) then exit 4

let run_plain_mode f job =
  let cert_acc = ref [] in
  let c =
    compile_job ~lint:f.lint
      ?cert_acc:(if f.certify then Some cert_acc else None)
      job
  in
  let circuit = inject_fault f.fault c.report.Compiler.circuit in
  let diagnostics = verify_diagnostics f.fault c circuit in
  let findings =
    if f.lint then
      Job.lint ~program:(Job.program job).Compiler.chunk_gadgets job c.report
        circuit
    else []
  in
  print_circuit_summary c.report circuit;
  finish f job ~template:false ~report:c.report ~diagnostics ~findings
    ~hook_findings:c.hook_findings
    ~certificate:(Certify.boundaries cert_acc)
    circuit

(* --- parametric templates (--template / --bind) --------------------------

   `compile W --template` compiles once with symbolic per-block angle
   slots and prints the template; `--bind NAME=VAL,...` additionally
   binds the parameters and reports the concrete circuit through the
   same metric/dump surface as a direct compile — by construction,
   `--template --bind '*=1.0' --dump` is byte-identical to a plain
   `--dump` at the same options. *)

let bind_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (Diag.to_string (Diag.make ~pass:"bind" Diag.Error m));
      exit 2)
    fmt

let parse_bindings ~(params : string array) spec =
  let n = Array.length params in
  let values = Array.make n 0.0 and set = Array.make n false in
  let index_of name =
    let rec find k =
      if k >= n then
        bind_error "unknown template parameter %S (the template binds %s)" name
          (if n = 0 then "no parameters"
           else if n = 1 then params.(0)
           else Printf.sprintf "%s .. %s" params.(0) params.(n - 1))
      else if String.equal params.(k) name then k
      else find (k + 1)
    in
    find 0
  in
  List.iter
    (fun pair ->
      if pair <> "" then begin
        match String.index_opt pair '=' with
        | None ->
          bind_error "malformed --bind entry %S (expected NAME=VALUE)" pair
        | Some i ->
          let name = String.sub pair 0 i in
          let raw = String.sub pair (i + 1) (String.length pair - i - 1) in
          (match float_of_string_opt raw with
          | None -> bind_error "non-numeric value %S for parameter %S" raw name
          | Some v ->
            if String.equal name "*" then begin
              Array.fill values 0 n v;
              Array.fill set 0 n true
            end
            else begin
              let k = index_of name in
              values.(k) <- v;
              set.(k) <- true
            end)
      end)
    (String.split_on_char ',' spec);
  Array.iteri
    (fun k bound ->
      if not bound then
        bind_error
          "parameter %s is unbound — its slot angles would stay symbolic \
           (bind it explicitly or use '*=VALUE')"
          params.(k))
    set;
  values

let run_template_mode f job ~bind_spec =
  let cert_acc = ref [] in
  let tmpl =
    compile_template ?cert_acc:(if f.certify then Some cert_acc else None) job
  in
  let report = Template.report tmpl in
  let certificate = Certify.boundaries cert_acc in
  match bind_spec with
  | None ->
    (* Unbound dump: the parameter table, slot expressions and slotted
       prototype.  Linting the prototype demonstrates the unbound-slot
       finding class (and exits 4): templates are certified by linting
       their *bound* circuits.  The certificate prints before any exit
       so a refuted boundary is visible next to the finding, and the
       trace is written last, as in every other mode. *)
    print_string (Template.dump tmpl);
    if f.timings then print_timing_entries report.Compiler.trace;
    report_certificate f job ~template:true certificate;
    let findings =
      if f.lint then Job.lint job report (Template.circuit tmpl) else []
    in
    if f.lint then print_findings findings;
    write_trace f job report report.Compiler.trace;
    if Finding.has_errors findings then exit 4;
    if f.certify && not (Certify.all_proved certificate) then exit 4
  | Some spec ->
    let theta = parse_bindings ~params:(Template.params tmpl) spec in
    let circuit, bind_trace = Template.bind_with_trace tmpl theta in
    let diagnostics, findings = Job.check_bound ~lint:f.lint job report circuit in
    print_circuit_summary report circuit;
    finish f job ~template:true ~report ~extra_trace:bind_trace ~diagnostics
      ~findings ~hook_findings:[] ~certificate circuit

(* --- streaming compilation (--stream) ------------------------------------

   `compile W --stream N` feeds N first-order Trotter steps of the
   workload through the pipeline one chunk per step: each chunk is
   grouped, simplified, synthesized and (with --dump) emitted before the
   next one starts, so peak working memory is bounded by the chunk, not
   the whole program.  Lint/verify/certify hooks fire at every pass
   boundary of every chunk; the summary block, timings and trace are
   aggregated over the stream.  Logical targets only — chunks route
   independently, so concatenating per-chunk placements would be
   unsound. *)

let run_stream_mode f (job : Job.t) ~steps =
  if Job.topology job <> None then
    usage_error
      "--stream is a logical-target mode (chunks route independently); drop \
       --topology and route the concatenated circuit separately";
  let verify = job.Job.options.Compiler.verify in
  let cert_acc = ref [] in
  let hooks, collect =
    boundary_hooks ~lint:f.lint ~verify
      (if f.certify then Some cert_acc else None)
  in
  (* Keep the concatenated circuit only when something downstream needs
     it; otherwise every chunk's circuit is dropped after emission and
     the run's footprint stays bounded by the chunk size. *)
  let keep_circuit =
    f.qasm_out <> None || f.draw || f.lint || verify || f.fault <> No_fault
  in
  let sr =
    Pipelines.compile_stream ~options:job.Job.options ~protect:true ~hooks
      ~keep_circuit
      ?emit:(if f.dump then Some print_gates else None)
      ~steps job.Job.entry job.Job.hamiltonian
  in
  let report = sr.Compiler.s_report in
  let hook_findings, hook_diags = collect () in
  let c = { job; report; hook_findings; hook_diags } in
  let circuit = inject_fault f.fault report.Compiler.circuit in
  let diagnostics = verify_diagnostics f.fault c circuit in
  let findings =
    if f.lint then
      let step = (Job.program job).Compiler.chunk_gadgets in
      Job.lint ~program:(List.concat (List.init steps (fun _ -> step))) job
        report circuit
    else []
  in
  (* metrics from the aggregated trace's final snapshot: gate counts are
     additive under concatenation, so these are exact whether or not the
     circuit was kept. *)
  let final =
    match List.rev report.Compiler.trace with
    | e :: _ -> e.Pass.after
    | [] -> Pass.metrics_zero
  in
  Printf.printf "qubits:    %d\n" (Hamiltonian.num_qubits job.Job.hamiltonian);
  Printf.printf "chunks:    %d\n" sr.Compiler.s_chunks;
  Printf.printf "gadgets:   %d\n" sr.Compiler.s_gadgets;
  Printf.printf "gates:     %d\n" final.Pass.gates;
  Printf.printf "1q gates:  %d\n" final.Pass.one_q;
  Printf.printf "2q gates:  %d\n" final.Pass.two_q;
  Printf.printf "depth-2q:  %d\n" report.Compiler.depth_2q;
  (* the gates already streamed out through [emit] *)
  finish { f with dump = false } job ~template:false ~report ~diagnostics
    ~findings ~hook_findings ~certificate:(Certify.boundaries cert_acc)
    circuit

open Cmdliner

let source_arg =
  let doc = "Hamiltonian file (coeff pauli-string lines) or builtin workload." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)

let isa_arg =
  let doc = "Target ISA: cnot or su4." in
  Arg.(value & opt (enum [ "cnot", Compiler.Cnot_isa; "su4", Compiler.Su4_isa ]) Compiler.Cnot_isa & info [ "isa" ] ~doc)

let topology_arg =
  let doc = "Device topology: all-to-all, heavy-hex, line, ring or grid." in
  Arg.(value & opt string "all-to-all" & info [ "topology" ] ~doc)

let baseline_arg =
  let doc = "Compiler: phoenix, tket, paulihedral, tetris, 2qan or naive." in
  Arg.(value & opt string "phoenix" & info [ "compiler" ] ~doc)

let dump_arg =
  let doc = "Print the full gate list." in
  Arg.(value & flag & info [ "dump" ] ~doc)

let draw_arg =
  let doc = "Render an ASCII circuit diagram (small circuits only)." in
  Arg.(value & flag & info [ "draw" ] ~doc)

let qasm_arg =
  let doc = "Write the compiled circuit to FILE as OpenQASM 2.0." in
  Arg.(value & opt (some string) None & info [ "qasm" ] ~docv:"FILE" ~doc)

let exact_arg =
  let doc = "Restrict reordering to exact transformations." in
  Arg.(value & flag & info [ "exact" ] ~doc)

let verify_arg =
  let doc =
    "Translation-validate the compilation (per-group equivalence checks with \
     naive fallback, structural/ISA/coupling validation) and print the \
     diagnostics.  Exits 3 when an error-severity diagnostic remains."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let lint_arg =
  let doc =
    "Run the static analyzer (see $(b,phoenix analyze)) over the compiled \
     circuit and print the findings.  Exits 4 when an error-severity \
     finding remains."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let timings_arg =
  let doc = "Print per-pass compile times." in
  Arg.(value & flag & info [ "timings" ] ~doc)

let pipeline_arg =
  let doc =
    "Pipeline to compile with (synonym for $(b,--compiler); see \
     $(b,phoenix passes) for the registry)."
  in
  Arg.(value & opt (some string) None & info [ "pipeline" ] ~docv:"NAME" ~doc)

let trace_arg =
  let doc =
    "Write the machine-readable pass trace (per-pass wall time and \
     before/after/delta circuit metrics, schema phoenix-trace-v1) to \
     FILE as JSON; $(b,-) for stdout."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let fault_arg =
  let doc =
    "Testing hook: corrupt the compiled circuit before verification and \
     linting (none, out-of-isa, nan-angle, zero-angle, dangling) to \
     exercise the detection paths and exit codes."
  in
  Arg.(value & opt (enum fault_enum) No_fault & info [ "inject-fault" ] ~doc)

(* Validated by hand (not Arg.enum) so a bad tier is a usage error under
   the CLI's 0/2/3/4 exit contract rather than cmdliner's 124. *)
let cache_arg =
  let doc =
    "Synthesis cache tier: $(b,off), $(b,mem) (in-process LRU, the \
     default) or $(b,disk) (adds the persistent tier under \
     \\$PHOENIX_CACHE_DIR).  Cached and cold compilation are \
     bit-identical."
  in
  Arg.(value & opt string "mem" & info [ "cache" ] ~docv:"TIER" ~doc)

let cache_tier_of_string s =
  match Cache.tier_of_string s with
  | Some t -> t
  | None ->
    Printf.eprintf "unknown cache tier %S (off, mem, disk)\n" s;
    exit 2

let timeout_arg =
  let doc =
    "Give the compile a deadline of SECONDS on the monotonic clock.  On \
     expiry, passes with a registered degradation ladder fall back to \
     cheaper strategies (greedy synthesis to the naive ladder, dense \
     equivalence checking to the Pauli-propagation certificate), each \
     step reported as a Warning and recorded in the report and trace; a \
     pass with no fallback rung stops the run with exit code 5."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let budget_of_timeout = function
  | None -> Budget.none
  | Some s when Float.is_finite s && s >= 0.0 -> Budget.of_timeout_s s
  | Some s ->
    Printf.eprintf
      "invalid --timeout %g (needs a finite, non-negative number of seconds)\n"
      s;
    exit 2

let template_arg =
  let doc =
    "Parametric compilation: run the pipeline once with symbolic per-block \
     angle slots and print the template (parameter table, slot expressions, \
     slotted circuit) instead of a concrete compile.  Combine with \
     $(b,--bind) to bind the parameters and report the concrete circuit.  \
     Only pipelines with block-structured IR (phoenix) support templates."
  in
  Arg.(value & flag & info [ "template" ] ~doc)

let bind_arg =
  let doc =
    "Bind a compiled template's parameters (implies $(b,--template)): \
     comma-separated NAME=VALUE pairs over the template's theta<k> \
     parameters; $(b,*=VALUE) binds every parameter at once.  Unknown \
     names and unbound parameters are usage errors (exit 2).  Binding \
     every parameter to 1.0 reproduces the plain compile bit-identically."
  in
  Arg.(value & opt (some string) None & info [ "bind" ] ~docv:"BINDINGS" ~doc)

let stream_arg =
  let doc =
    "Streaming compilation: compile STEPS first-order Trotter steps of the \
     workload one chunk per step, bounding peak memory by the chunk rather \
     than the whole program.  With $(b,--dump) each chunk's gates stream out \
     as the chunk finishes; the summary, timings and trace aggregate over \
     the stream.  Logical targets only (chunks route independently), and \
     incompatible with $(b,--template)/$(b,--bind)."
  in
  Arg.(value & opt (some int) None & info [ "stream" ] ~docv:"STEPS" ~doc)

let certify_arg =
  let doc =
    "Certify the compilation with the symbolic translation validator: every \
     pass boundary is audited against the pass's claimed certificate in the \
     Clifford-frame × phase-polynomial domain (no dense simulation; works \
     on routed circuits and unbound templates alike).  Prints one verdict \
     line per boundary and exits 4 unless every boundary is proved."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let cert_out_arg =
  let doc =
    "Write the certificate (schema phoenix-cert-v1: overall verdict, \
     per-boundary claims, verdicts and checker timings) to FILE as JSON; \
     $(b,-) for stdout.  Implies $(b,--certify)."
  in
  Arg.(value & opt (some string) None & info [ "cert" ] ~docv:"FILE" ~doc)

let cache_stats_arg =
  let doc =
    "Print the synthesis-cache counters for this run (hits, misses, disk \
     hits, disk errors, evictions, resident entries/bytes)."
  in
  Arg.(value & flag & info [ "cache-stats" ] ~doc)

let compile_cmd =
  let run source isa topology compiler pipeline dump exact verify lint certify
      cert_out timings qasm_out draw fault trace_out cache cache_stats timeout
      template bind_spec stream =
    let compiler = Option.value pipeline ~default:compiler in
    let cache = cache_tier_of_string cache in
    let budget = budget_of_timeout timeout in
    let certify = certify || cert_out <> None in
    if stream <> None && (template || bind_spec <> None) then
      usage_error
        "--stream cannot be combined with --template/--bind (bind the \
         template, then stream the bound program)";
    (match stream with
    | Some steps when steps < 1 ->
      usage_error "--stream needs a positive number of Trotter steps"
    | _ -> ());
    let job =
      resolve ~isa ~exact ~verify ~cache ~budget ~compiler ~topology source
    in
    let f =
      {
        source;
        lint;
        certify;
        cert_out;
        timings;
        dump;
        draw;
        qasm_out;
        trace_out;
        cache_stats;
        fault;
      }
    in
    match stream with
    | Some steps -> run_stream_mode f job ~steps
    | None ->
      if template || bind_spec <> None then run_template_mode f job ~bind_spec
      else run_plain_mode f job
  in
  let doc = "Compile a Hamiltonian-simulation program." in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ source_arg $ isa_arg $ topology_arg $ baseline_arg $ pipeline_arg $ dump_arg $ exact_arg $ verify_arg $ lint_arg $ certify_arg $ cert_out_arg $ timings_arg $ qasm_arg $ draw_arg $ fault_arg $ trace_arg $ cache_arg $ cache_stats_arg $ timeout_arg $ template_arg $ bind_arg $ stream_arg)

let info_cmd =
  let run source =
    let h = load source in
    Printf.printf "qubits:   %d\n" (Hamiltonian.num_qubits h);
    Printf.printf "terms:    %d\n" (Hamiltonian.num_terms h);
    Printf.printf "max wt:   %d\n" (Hamiltonian.max_weight h);
    Printf.printf "blocks:   %s\n"
      (match Hamiltonian.term_blocks h with
      | Some bs -> string_of_int (List.length bs)
      | None -> "-")
  in
  let doc = "Describe a workload." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ source_arg)

let simulate_cmd =
  let shots_arg =
    Arg.(value & opt int 0 & info [ "shots" ] ~doc:"Sample N measurement outcomes.")
  in
  let run source shots =
    let h = load source in
    let n = Hamiltonian.num_qubits h in
    if n > 14 then begin
      Printf.eprintf "simulation limited to 14 qubits (got %d)\n" n;
      exit 2
    end;
    let r = Pipelines.compile Pipelines.phoenix h in
    let v = Phoenix_linalg.Statevector.of_circuit r.Compiler.circuit in
    Printf.printf "compiled: %d CNOTs, 2Q depth %d\n" r.Compiler.two_q_count
      r.Compiler.depth_2q;
    Printf.printf "<H> on the evolved |0...0> state: %+.6f\n"
      (Phoenix_linalg.Statevector.expectation v h);
    let probs = Phoenix_linalg.Statevector.probabilities v in
    let indexed = Array.mapi (fun k p -> p, k) probs in
    Array.sort (fun (a, _) (b, _) -> compare b a) indexed;
    Printf.printf "top basis states:\n";
    Array.iteri
      (fun rank (p, k) ->
        if rank < 8 && p > 1e-6 then begin
          let bits = String.init n (fun q -> if (k lsr (n - 1 - q)) land 1 = 1 then '1' else '0') in
          Printf.printf "  |%s>  %.4f\n" bits p
        end)
      indexed;
    if shots > 0 then begin
      let rng = Phoenix_util.Prng.create 1234 in
      let counts = Hashtbl.create 16 in
      for _ = 1 to shots do
        let k = Phoenix_linalg.Statevector.sample rng v in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
      done;
      Printf.printf "%d shots:\n" shots;
      Hashtbl.iter
        (fun k c ->
          let bits = String.init n (fun q -> if (k lsr (n - 1 - q)) land 1 = 1 then '1' else '0') in
          Printf.printf "  |%s>  %d\n" bits c)
        counts
    end
  in
  let doc = "Compile and state-vector-simulate a workload (<= 14 qubits)." in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const run $ source_arg $ shots_arg)

(* --- analyze: IR statistics (legacy --stats view) ------------------------ *)

let print_ir_stats h =
  let n = Hamiltonian.num_qubits h in
  let gadgets = Hamiltonian.trotter_gadgets h in
  let hist = Array.make (n + 1) 0 in
  List.iter
    (fun (p, _) ->
      let w = Phoenix_pauli.Pauli_string.weight p in
      hist.(w) <- hist.(w) + 1)
    gadgets;
  Printf.printf "Pauli-weight histogram (raw IR):\n";
  Array.iteri (fun w c -> if c > 0 then Printf.printf "  weight %2d: %d\n" w c) hist;
  let groups =
    match Hamiltonian.gadget_blocks h with
    | Some blocks -> Phoenix.Group.of_blocks n blocks
    | None -> Phoenix.Group.group_gadgets n gadgets
  in
  let cliff_hist = Hashtbl.create 8 in
  let total_cliffs = ref 0 in
  List.iter
    (fun g ->
      let cfg = Phoenix.Simplify.run n g.Phoenix.Group.terms in
      List.iter
        (function
          | Phoenix.Simplify.Cliff c ->
            incr total_cliffs;
            let k = Phoenix_pauli.Clifford2q.kind_to_string c.Phoenix_pauli.Clifford2q.kind in
            Hashtbl.replace cliff_hist k
              (1 + Option.value ~default:0 (Hashtbl.find_opt cliff_hist k))
          | _ -> ())
        cfg)
    groups;
  Printf.printf "IR groups: %d (mean size %.1f terms)\n" (List.length groups)
    (float_of_int (List.length gadgets) /. float_of_int (max 1 (List.length groups)));
  Printf.printf "Clifford2Q conjugations: %d total\n" !total_cliffs;
  Printf.printf "generator usage (Eq. 5 set):\n";
  List.iter
    (fun k ->
      let name = Phoenix_pauli.Clifford2q.kind_to_string k in
      Printf.printf "  %-7s %d\n" name
        (Option.value ~default:0 (Hashtbl.find_opt cliff_hist name)))
    Phoenix_pauli.Clifford2q.all_kinds

(* --- analyze: the static analyzer ---------------------------------------- *)

let analyze_cmd =
  let json_arg =
    let doc = "Emit the findings as a JSON array on stdout (nothing else)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let stats_arg =
    let doc = "Also print IR statistics (weight histogram, generator usage)." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let determinism_arg =
    let doc =
      "Also audit parallel-compilation determinism by replaying the \
       group compilation under permuted work orders (phoenix compiler \
       only)."
    in
    Arg.(value & flag & info [ "determinism" ] ~doc)
  in
  let list_arg =
    let doc = "List the registered analyses and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let only_arg =
    let doc =
      "Run only the named analyses (comma-separated registry names; see \
       $(b,--list)).  Unknown names are a usage error (exit 2)."
    in
    Arg.(value & opt string "" & info [ "only" ] ~docv:"NAMES" ~doc)
  in
  let skip_arg =
    let doc =
      "Skip the named analyses (comma-separated; composes with \
       $(b,--only)).  Unknown names are a usage error (exit 2)."
    in
    Arg.(value & opt string "" & info [ "skip" ] ~docv:"NAMES" ~doc)
  in
  let opt_source_arg =
    let doc = "Hamiltonian file or builtin workload." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)
  in
  let run source isa topology compiler exact json stats determinism list_only
      only_spec skip_spec fault =
    if list_only then begin
      List.iter
        (fun (a : Registry.analysis) ->
          Printf.printf "%-24s %s\n" a.Registry.name a.Registry.description)
        Registry.all;
      exit 0
    end;
    let source =
      match source with
      | Some s -> s
      | None ->
        Printf.eprintf "analyze: a SOURCE is required (or use --list)\n";
        exit 2
    in
    let names_of spec =
      match List.filter (fun s -> s <> "") (String.split_on_char ',' spec) with
      | [] -> None
      | l -> Some l
    in
    let only = names_of only_spec and skip = names_of skip_spec in
    (match
       Registry.unknown
         (Option.value only ~default:[] @ Option.value skip ~default:[])
     with
    | [] -> ()
    | missing ->
      Printf.eprintf "analyze: unknown analyses: %s\navailable: %s\n"
        (String.concat ", " missing)
        (String.concat ", " (Registry.names ()));
      exit 2);
    let job = resolve ~isa ~exact ~compiler ~topology source in
    let c = compile_job job in
    let circuit = inject_fault fault c.report.Compiler.circuit in
    let program = Job.program job in
    let findings =
      Registry.run ?only ?skip
        (Job.lint_target ~program:program.Compiler.chunk_gadgets job c.report
           circuit)
    in
    let findings =
      if determinism then begin
        if compiler <> "phoenix" then
          usage_error
            "analyze: --determinism only applies to the phoenix compiler";
        let n = Hamiltonian.num_qubits job.Job.hamiltonian in
        let groups =
          match program.Compiler.chunk_blocks with
          | Some blocks -> Phoenix.Group.of_blocks n blocks
          | None ->
            Phoenix.Group.group_gadgets ~exact n program.Compiler.chunk_gadgets
        in
        findings @ Determinism.audit_groups ~options:job.Job.options n groups
      end
      else findings
    in
    if json then
      write_output "-" (Json.Arr (List.map Finding.to_json findings))
    else begin
      Printf.printf "circuit:   %d qubits, %d gates (%d 2Q, depth-2q %d)\n"
        (Circuit.num_qubits circuit) (Circuit.length circuit)
        (Circuit.count_2q circuit) (Circuit.depth_2q circuit);
      let selected =
        List.filter
          (fun n ->
            (match only with None -> true | Some l -> List.mem n l)
            && match skip with None -> true | Some l -> not (List.mem n l))
          (Registry.names ())
      in
      Printf.printf "analyses:  %s\n" (String.concat ", " selected);
      print_findings findings;
      if stats then print_ir_stats job.Job.hamiltonian
    end;
    if Finding.has_errors findings then exit 4
  in
  let doc =
    "Run the static analyzer over a compiled workload: qubit liveness, ISA \
     and coupling conformance, metric certification, layer consistency, \
     angle sanity, symbolic translation validation — plus optional \
     compiler-internal determinism audits.  $(b,--only)/$(b,--skip) select \
     subsets by registry name.  Exits 4 on error-severity findings."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ opt_source_arg $ isa_arg $ topology_arg $ baseline_arg $ exact_arg $ json_arg $ stats_arg $ determinism_arg $ list_arg $ only_arg $ skip_arg $ fault_arg)

(* --- certify: proof-carrying pass certificates ---------------------------- *)

let certify_cmd =
  let json_arg =
    let doc =
      "Write the certificate (schema phoenix-cert-v1) to FILE as JSON; \
       $(b,-) for stdout."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let template_flag =
    let doc =
      "Certify a parametric template compile: the slotted circuit is checked \
       symbolically over the angle arena, so one certificate covers every \
       parameter binding (phoenix pipeline only)."
    in
    Arg.(value & flag & info [ "template" ] ~doc)
  in
  let run source isa topology compiler pipeline exact template json_out =
    let compiler = Option.value pipeline ~default:compiler in
    let cert_acc = ref [] in
    let job = resolve ~isa ~exact ~compiler ~topology source in
    if template then ignore (compile_template ~cert_acc job)
    else ignore (compile_job ~cert_acc job);
    let bs = Certify.boundaries cert_acc in
    print_certification bs;
    write_cert ~pipeline:compiler ~workload:source ~template json_out bs;
    if not (Certify.all_proved bs) then exit 4
  in
  let doc =
    "Compile a workload under the symbolic translation validator and report \
     the certificate: each pass claims a rewrite freedom (unchanged, \
     order-preserving, reordering, routing) and an independent checker \
     replays the claim in the Clifford-frame × phase-polynomial abstract \
     domain — no dense simulation, sound on routed circuits and unbound \
     templates.  Exits 4 unless every pass boundary is proved."
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(const run $ source_arg $ isa_arg $ topology_arg $ baseline_arg $ pipeline_arg $ exact_arg $ template_flag $ json_arg)

(* --- passes: the pipeline/pass registry ---------------------------------- *)

let passes_cmd =
  let list_arg =
    let doc = "List every registered pass (the default)." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let run list_only pipeline =
    ignore list_only;
    match pipeline with
    | Some name ->
      let entry = or_usage_error (Job.find_pipeline name) in
      Printf.printf "%s — %s\n" entry.Pipelines.name
        entry.Pipelines.description;
      Printf.printf "passes (hardware target, verification on):\n";
      let repr =
        {
          Compiler.default_options with
          Compiler.target = Compiler.Hardware (Topology.line 4);
          verify = true;
        }
      in
      List.iter
        (fun (p : Pass.t) ->
          Printf.printf "  %-10s %s\n" p.Pass.name p.Pass.description)
        (entry.Pipelines.passes repr)
    | None ->
      Printf.printf "pipelines:\n";
      List.iter
        (fun (e : Pipelines.entry) ->
          Printf.printf "  %-12s %s\n" e.Pipelines.name
            e.Pipelines.description)
        Pipelines.all;
      Printf.printf "\npasses (name, description, used by):\n";
      List.iter
        (fun (c : Pipelines.catalog_entry) ->
          Printf.printf "  %-10s %s\n  %10s   used by: %s\n" c.Pipelines.pass_name
            c.Pipelines.pass_description ""
            (String.concat ", " c.Pipelines.pipelines))
        (Pipelines.catalog ())
  in
  let doc =
    "List the registered pipelines and passes: each pass's name, \
     description and the pipelines that use it.  With $(b,--pipeline) \
     NAME, show that pipeline's pass list in execution order."
  in
  Cmd.v (Cmd.info "passes" ~doc) Term.(const run $ list_arg $ pipeline_arg)

(* --- cache: the persistent synthesis cache ------------------------------- *)

let cache_cmd =
  let json_arg =
    let doc = "Emit machine-readable JSON on stdout (nothing else)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let stats_sub =
    let run json =
      let dir = Cache.dir () in
      let files = Cache.Persist.list_files ~dir () in
      let entries = List.length files in
      let bytes = Cache.Persist.disk_bytes ~dir () in
      if json then
        write_output "-"
          (Json.Obj
             [
               ("schema", Json.Str "phoenix-cache-stats-v1");
               ("dir", Json.Str dir);
               ("entries", Json.Num (Float.of_int entries));
               ("bytes", Json.Num (Float.of_int bytes));
               ( "memory_budget_bytes",
                 Json.Num (Float.of_int (Cache.budget ())) );
             ])
      else begin
        Printf.printf "dir:       %s\n" dir;
        Printf.printf "entries:   %d\n" entries;
        Printf.printf "bytes:     %d\n" bytes;
        Printf.printf "budget:    %d (memory tier)\n" (Cache.budget ())
      end
    in
    let doc = "Show the persistent synthesis-cache directory, entry count and size." in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ json_arg)
  in
  let clear_sub =
    let run () =
      let removed = Cache.Persist.clear ~dir:(Cache.dir ()) () in
      Printf.printf "removed %d cache entries from %s\n" removed (Cache.dir ())
    in
    let doc = "Remove every entry from the persistent synthesis cache." in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ const ())
  in
  let warm_sub =
    let run source isa topology compiler pipeline exact =
      let compiler = Option.value pipeline ~default:compiler in
      let c =
        compile_job
          (resolve ~isa ~exact ~cache:Cache.Disk ~compiler ~topology source)
      in
      let s = c.report.Compiler.cache_stats in
      Printf.printf
        "warmed %s (%s): %d groups, %d new entries persisted, %d hits / %d \
         misses\n"
        source compiler c.report.Compiler.num_groups s.Cache.insertions
        s.Cache.hits s.Cache.misses;
      Printf.printf "cache dir: %s (%d entries, %d bytes)\n" (Cache.dir ())
        (List.length (Cache.Persist.list_files ~dir:(Cache.dir ()) ()))
        (Cache.Persist.disk_bytes ~dir:(Cache.dir ()) ())
    in
    let doc =
      "Compile a workload with the disk tier enabled so later runs (and \
       other processes) start from a warm synthesis cache."
    in
    Cmd.v (Cmd.info "warm" ~doc)
      Term.(const run $ source_arg $ isa_arg $ topology_arg $ baseline_arg $ pipeline_arg $ exact_arg)
  in
  let audit_sub =
    let run json =
      let findings = Cache_audit.run ~dir:(Cache.dir ()) () in
      if json then
        write_output "-" (Json.Arr (List.map Finding.to_json findings))
      else begin
        Printf.printf "dir:       %s\n" (Cache.dir ());
        print_findings findings
      end;
      if Finding.has_errors findings then exit 4
    in
    let doc =
      "Audit the persistent synthesis cache: parse every entry, verify \
       checksums, re-derive content addresses from stored fingerprints and \
       range-check stored gates.  Exits 4 on error findings."
    in
    Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ json_arg)
  in
  let doc =
    "Manage the content-addressed synthesis cache (persistent tier under \
     \\$PHOENIX_CACHE_DIR)."
  in
  Cmd.group (Cmd.info "cache" ~doc) [ stats_sub; clear_sub; warm_sub; audit_sub ]

(* --- chaos: the fault-injection soak ------------------------------------- *)

(* Every seeded run must land in one of the first three classes; a
   Violation — silent divergence from the clean baseline, a surviving
   verification error, a non-conforming degradation, or a raw exception
   escaping the pass manager — fails the soak. *)
type chaos_class = Identical | Degraded | Failed_closed | Violation

let chaos_class_name = function
  | Identical -> "identical"
  | Degraded -> "degraded"
  | Failed_closed -> "failed-closed"
  | Violation -> "violation"

let chaos_cmd =
  let runs_arg =
    let doc = "Seeded chaos runs per pipeline." in
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Base seed; the $(i,r)-th run injects faults under seed + r." in
    Arg.(value & opt int 2025 & info [ "seed" ] ~doc)
  in
  let workload_arg =
    let doc = "Workload to soak (Hamiltonian file or builtin)." in
    Arg.(value & opt string "heisenberg:6" & info [ "workload" ] ~doc)
  in
  let pipelines_arg =
    let doc = "Comma-separated pipeline names, or $(b,all)." in
    Arg.(value & opt string "all" & info [ "pipelines" ] ~doc)
  in
  let plan_arg =
    let doc =
      "Fault plan in PHOENIX_CHAOS syntax (any seed field is overridden \
       per run): per-site firing probabilities for $(b,timeout), \
       $(b,worker), $(b,cache-flip), $(b,cache-truncate) and $(b,alloc)."
    in
    Arg.(
      value
      & opt string
          "timeout=0.02,worker=0.05,cache-flip=0.15,cache-truncate=0.05,alloc=0.02"
      & info [ "plan" ] ~doc)
  in
  let json_arg =
    let doc =
      "Write the per-run soak records to FILE as JSON; $(b,-) for stdout."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-run budget backstop in seconds: a wedged run must degrade or \
       fail closed, never hang."
    in
    Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run runs seed workload pipelines plan_str json_out timeout =
    let plan =
      match Chaos.parse plan_str with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "chaos: %s\n" msg;
        exit 2
    in
    if runs < 1 then begin
      Printf.eprintf "chaos: --runs must be at least 1\n";
      exit 2
    end;
    if not (Float.is_finite timeout) || timeout <= 0.0 then begin
      Printf.eprintf "chaos: --timeout must be a positive number of seconds\n";
      exit 2
    end;
    let entries =
      if pipelines = "all" then Pipelines.all
      else
        List.map
          (fun name -> or_usage_error (Job.find_pipeline name))
          (String.split_on_char ',' pipelines)
    in
    let h = load workload in
    let n = Hamiltonian.num_qubits h in
    (* Isolated persistent-cache directory: the soak corrupts staged cache
       entries on purpose and must never touch a user's cache.  Entries
       survive between runs so later runs exercise the corrupt-read path. *)
    let cache_dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "phoenix-chaos-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir cache_dir 0o700
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.putenv "PHOENIX_CACHE_DIR" cache_dir;
    let compile_once (job : Job.t) budget =
      Cache.reset_health ();
      Cache.clear_memory ();
      Pipelines.compile
        ~options:{ job.Job.options with Compiler.budget }
        ~protect:true job.Job.entry job.Job.hamiltonian
    in
    let results = ref [] in
    Fun.protect
      ~finally:(fun () -> Chaos.set_plan None)
      (fun () ->
        List.iter
          (fun (entry : Pipelines.entry) ->
            match
              Job.resolve ~verify:true ~cache:Cache.Disk
                ~pipeline:entry.Pipelines.name
                ~topology:
                  (if entry.Pipelines.requires_topology then "line"
                   else "all-to-all")
                h
            with
            | Error msg ->
              Printf.printf "%-12s skipped (%s)\n" entry.Pipelines.name msg
            | Ok job ->
              Chaos.set_plan None;
              let baseline = compile_once job Budget.none in
              if Diag.has_errors baseline.Compiler.diagnostics then begin
                Printf.eprintf
                  "chaos: the clean %s baseline fails verification; fix that \
                   before soaking\n"
                  entry.Pipelines.name;
                exit 1
              end;
              let baseline_gates = Circuit.gates baseline.Compiler.circuit in
              for r = 0 to runs - 1 do
                let run_seed = seed + r in
                Chaos.set_plan (Some { plan with Chaos.seed = run_seed });
                let cls, detail =
                  match compile_once job (Budget.of_timeout_s timeout) with
                  | report ->
                    if Diag.has_errors report.Compiler.diagnostics then
                      ( Violation,
                        "verification errors survived: "
                        ^ Diag.summary report.Compiler.diagnostics )
                    else if report.Compiler.degradations <> [] then begin
                      let lint = Resilience_lint.conformance report in
                      if Finding.has_errors lint then
                        (Violation, Finding.summary lint)
                      else
                        ( Degraded,
                          Resilience.aggregate_to_string
                            report.Compiler.degradations )
                    end
                    else if
                      Circuit.gates report.Compiler.circuit = baseline_gates
                    then (Identical, "")
                    else
                      ( Violation,
                        "silent divergence from the clean baseline circuit" )
                  | exception Pass.Interrupted { pass; reason } ->
                    ( Failed_closed,
                      Printf.sprintf "%s: %s" pass
                        (Budget.reason_to_string reason) )
                  | exception Pass.Failed { pass; error } ->
                    (Failed_closed, Printf.sprintf "%s: %s" pass error)
                  | exception e ->
                    (Violation, "uncaught exception: " ^ Printexc.to_string e)
                in
                Chaos.set_plan None;
                results := (entry.Pipelines.name, run_seed, cls, detail)
                           :: !results
              done)
          entries);
    let results = List.rev !results in
    let count c = List.length (List.filter (fun (_, _, k, _) -> k = c) results) in
    let identical = count Identical and degraded = count Degraded in
    let failed = count Failed_closed and violations = count Violation in
    Printf.printf "plan:      %s (base seed %d)\n"
      (Chaos.plan_to_string { plan with Chaos.seed = seed })
      seed;
    Printf.printf "workload:  %s (%d qubits)\n" workload n;
    Printf.printf "runs:      %d per pipeline, %d total\n" runs
      (List.length results);
    Printf.printf "identical: %d\n" identical;
    Printf.printf "degraded:  %d\n" degraded;
    Printf.printf "failed-closed: %d\n" failed;
    Printf.printf "violations: %d\n" violations;
    List.iter
      (fun (pipe, s, cls, detail) ->
        if cls = Violation then
          Printf.printf "  VIOLATION %s seed=%d: %s\n" pipe s detail)
      results;
    Option.iter
      (fun path ->
        write_output path
          (Json.Obj
             [
               ("schema", Json.Str "phoenix-chaos-v1");
               ("workload", Json.Str workload);
               ("plan", Json.Str plan_str);
               ("base_seed", Json.Num (Float.of_int seed));
               ("runs_per_pipeline", Json.Num (Float.of_int runs));
               ( "results",
                 Json.Arr
                   (List.map
                      (fun (pipe, s, cls, detail) ->
                        Json.Obj
                          [
                            ("pipeline", Json.Str pipe);
                            ("seed", Json.Num (Float.of_int s));
                            ("class", Json.Str (chaos_class_name cls));
                            ("detail", Json.Str detail);
                          ])
                      results) );
               ("identical", Json.Num (Float.of_int identical));
               ("degraded", Json.Num (Float.of_int degraded));
               ("failed_closed", Json.Num (Float.of_int failed));
               ("violations", Json.Num (Float.of_int violations));
             ]))
      json_out;
    if violations > 0 then exit 1
  in
  let doc =
    "Soak the compiler under seeded fault injection: N runs per pipeline, \
     each under a per-run deadline with injected pass timeouts, worker \
     faults, cache corruption and allocation pressure.  Every run must \
     complete bit-identically to a clean baseline, degrade conformantly \
     along the registered ladders, or fail closed with a structured \
     diagnostic; anything else is a violation (exit 1)."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ runs_arg $ seed_arg $ workload_arg $ pipelines_arg $ plan_arg $ json_arg $ timeout_arg)

(* --- serve: the concurrent compilation daemon --------------------------- *)

let serve_cmd =
  let module Serve = Phoenix_serve.Serve in
  let run socket port host workers max_queue timeout max_request_kb self_test
      connect =
    if workers < 1 then begin
      Printf.eprintf "--workers must be >= 1\n";
      exit 2
    end;
    if max_queue < 1 then begin
      Printf.eprintf "--max-queue must be >= 1\n";
      exit 2
    end;
    if max_request_kb < 1 then begin
      Printf.eprintf "--max-request-kb must be >= 1\n";
      exit 2
    end;
    (match timeout with
    | Some s when (not (Float.is_finite s)) || s < 0.0 ->
      Printf.eprintf "--timeout must be a non-negative number of seconds\n";
      exit 2
    | _ -> ());
    match connect with
    | Some spec -> begin
      (* client mode: pump NDJSON requests from stdin, responses to
         stdout (completion order; match on "id") *)
      match Serve.addr_of_string spec with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
      | Ok addr -> (
        match Serve.Client.connect addr with
        | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "cannot connect to %s: %s\n"
            (Serve.addr_to_string addr) (Unix.error_message e);
          exit 2
        | conn ->
          let pump =
            Thread.create
              (fun () ->
                let rec loop () =
                  match Serve.Client.recv conn with
                  | Some resp ->
                    print_endline (Json.to_string resp);
                    loop ()
                  | None -> ()
                in
                loop ())
              ()
          in
          (try
             while true do
               Serve.Client.send_line conn (input_line stdin)
             done
           with End_of_file -> ());
          Serve.Client.shutdown_send conn;
          Thread.join pump;
          Serve.Client.close conn)
    end
    | None ->
      if self_test then begin
        if Serve.self_test ~workers () then
          print_endline "phoenix serve: self-test ok"
        else begin
          Printf.eprintf "phoenix serve: self-test FAILED\n";
          exit 1
        end
      end
      else begin
        let addr =
          match (socket, port) with
          | Some _, Some _ ->
            Printf.eprintf "--socket and --port are mutually exclusive\n";
            exit 2
          | Some path, None -> Serve.Unix_socket path
          | None, Some p when p >= 0 && p <= 65535 -> Serve.Tcp (host, p)
          | None, Some p ->
            Printf.eprintf "port %d out of range (0-65535)\n" p;
            exit 2
          | None, None ->
            Printf.eprintf
              "phoenix serve needs --socket PATH or --port N (or \
               --self-test/--connect)\n";
            exit 2
        in
        let config =
          {
            (Serve.default_config addr) with
            Serve.workers;
            max_queue;
            default_timeout_s = timeout;
            max_request_bytes = max_request_kb * 1024;
          }
        in
        match Serve.run config with
        | () -> ()
        | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "cannot serve on %s: %s\n"
            (Serve.addr_to_string addr) (Unix.error_message e);
          exit 2
        | exception Failure msg ->
          (* e.g. a hostname inet_addr_of_string cannot parse *)
          Printf.eprintf "cannot serve on %s: %s\n"
            (Serve.addr_to_string addr) msg;
          exit 2
      end
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on TCP port $(docv) (0 binds an ephemeral port)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Bind address for $(b,--port)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains compiling jobs in parallel." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Job-queue capacity; compile requests beyond it are refused with \
       status 6 (overloaded) instead of buffering without bound."
    in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default per-job compile budget in seconds for jobs that carry no \
       $(i,timeout)/$(i,budget_checks) of their own; expiry degrades along \
       the resilience ladders or answers status 5 (deadline)."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_request_arg =
    let doc =
      "Longest accepted request line, in KiB; longer lines get a \
       structured status-2 response and the connection is closed."
    in
    Arg.(value & opt int 8192 & info [ "max-request-kb" ] ~docv:"KIB" ~doc)
  in
  let self_test_arg =
    let doc =
      "One-shot smoke mode: boot on an ephemeral socket, exercise \
       ping/compile/template/stats/malformed round trips through a real \
       connection, drain, exit 0 on success (CI's liveness check)."
    in
    Arg.(value & flag & info [ "self-test" ] ~doc)
  in
  let connect_arg =
    let doc =
      "Client mode: connect to a running daemon at $(docv) \
       (unix:PATH or tcp:HOST:PORT), send request lines from stdin, print \
       response lines (completion order) to stdout."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let doc =
    "Run the concurrent compilation daemon: newline-delimited JSON compile \
     jobs in (builtin workloads, inline Hamiltonians, or OpenQASM), circuit \
     + report JSON out, over a Unix or TCP socket.  Jobs compile in \
     parallel on a pool of worker domains sharing one synthesis cache; \
     responses arrive in completion order and carry the CLI's exit-code \
     contract as a per-response status.  SIGTERM drains: every accepted \
     job is answered before exit."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ workers_arg
      $ max_queue_arg $ timeout_arg $ max_request_arg $ self_test_arg
      $ connect_arg)

let () =
  Chaos.install_from_env ();
  let doc = "PHOENIX: Pauli-based high-level optimization engine (DAC 2025 reproduction)." in
  let info = Cmd.info "phoenix" ~version:"1.0.0" ~doc in
  let status =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [ compile_cmd; info_cmd; simulate_cmd; analyze_cmd; certify_cmd; passes_cmd; cache_cmd; chaos_cmd; serve_cmd ])
    with
    | Pass.Interrupted { pass; reason } ->
      (* a budget expired in a pass with no fallback rung: fail closed
         with the documented exit code (5 deadline, 1 cancellation) *)
      Printf.eprintf "phoenix: %s\n"
        (Diag.to_string
           (Diag.make ~pass Diag.Error
              (match reason with
              | Budget.Deadline -> "deadline exceeded with no fallback available"
              | Budget.Cancelled -> "job cancelled")));
      (match reason with
      | Budget.Deadline -> Resilience.exit_deadline
      | Budget.Cancelled -> 1)
    | Pass.Failed { pass; error } ->
      Printf.eprintf "phoenix: %s\n"
        (Diag.to_string
           (Diag.make ~pass Diag.Error ("pass failed closed: " ^ error)));
      1
  in
  exit status
