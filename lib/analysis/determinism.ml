module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Group = Phoenix.Group
module Circuit = Phoenix_circuit.Circuit
module Diag = Phoenix_verify.Diag

let analysis = "parallel-determinism"

(* The claim-order seed travels to the domain pool through the
   environment ([Phoenix_util.Parallel] reads [PHOENIX_PARALLEL_SEED])
   so no compiler API changes are needed to permute its scheduling. *)
let with_seed_env seed f =
  let var = "PHOENIX_PARALLEL_SEED" in
  let old = Sys.getenv_opt var in
  Unix.putenv var (match seed with Some s -> string_of_int s | None -> "");
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value ~default:"" old))
    f

(* Wall-clock fields are excluded by construction; everything else in the
   report must be bit-identical to the serial reference. *)
let diff_reports ~label (reference : Compiler.report)
    (candidate : Compiler.report) =
  let fs = ref [] in
  let err fmt =
    Printf.ksprintf (fun m -> fs := Finding.make ~analysis Error m :: !fs) fmt
  in
  if not (Circuit.equal reference.Compiler.circuit candidate.Compiler.circuit)
  then err "%s: output circuit differs from the serial reference" label;
  let metric name f =
    let a = f reference and b = f candidate in
    if a <> b then err "%s: %s differs (serial %d, replay %d)" label name a b
  in
  metric "2Q count" (fun r -> r.Compiler.two_q_count);
  metric "2Q depth" (fun r -> r.Compiler.depth_2q);
  metric "1Q count" (fun r -> r.Compiler.one_q_count);
  metric "SWAP count" (fun r -> r.Compiler.num_swaps);
  metric "group count" (fun r -> r.Compiler.num_groups);
  let render (r : Compiler.report) =
    List.map Diag.to_string r.Compiler.diagnostics
  in
  if render reference <> render candidate then
    err "%s: diagnostics stream differs from the serial reference" label;
  List.rev !fs

(* The PHOENIX pipeline over pre-built IR groups, skipping the group
   pass. *)
let compile_groups options n groups =
  Compiler.run_passes
    (Compiler.passes ~with_grouping:false options)
    (Pass.init ~groups options n)

let audit_groups ?(options = Compiler.default_options)
    ?(domain_counts = [ 2; 4 ]) ?(seeds = [ 1; 42 ]) n groups =
  let serial =
    with_seed_env None (fun () ->
        compile_groups { options with Compiler.domains = 1 } n groups)
  in
  let replays =
    List.concat_map
      (fun d -> List.map (fun s -> d, s) seeds)
      (List.sort_uniq compare (List.filter (fun d -> d > 1) domain_counts))
  in
  let fs =
    List.concat_map
      (fun (d, s) ->
        let candidate =
          with_seed_env (Some s) (fun () ->
              compile_groups { options with Compiler.domains = d } n groups)
        in
        diff_reports
          ~label:(Printf.sprintf "domains=%d seed=%d" d s)
          serial candidate)
      replays
  in
  if fs = [] then
    [
      Finding.info ~analysis
        "%d permuted parallel replays bit-identical to the serial compilation"
        (List.length replays);
    ]
  else fs

let audit_gadgets ?options ?domain_counts ?seeds n gadgets =
  let exact =
    (Option.value ~default:Compiler.default_options options).Compiler.exact
  in
  audit_groups ?options ?domain_counts ?seeds n
    (Group.group_gadgets ~exact n gadgets)
