(* Parametric compilation: compile once, rebind angles.

   Headline property under test: [Template.bind (compile_template H) θ]
   is bit-identical — gate structure AND IEEE angle bits — to a direct
   [compile] of H at θ, for generic (non-degenerate) angles.  Checked as
   goldens on the LiH/QAOA presets across option combos (logical CNOT,
   SU(4), heavy-hex routing, exact mode) and as a qcheck differential
   over random block programs and angle vectors.  Plus: binds run no
   pipeline passes (single-entry "bind" trace), every parameter stays
   live through simplify/peephole (slot survival), template compiles hit
   the structure-keyed synthesis cache across parameter values (mem and
   disk tiers, warm ≡ cold), budget expiry never yields a partial
   template, and degraded compiles refuse to template. *)

module Pauli_string = Helpers.Pauli_string
module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Angle = Phoenix_pauli.Angle
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Template = Phoenix.Template
module Pass = Phoenix.Pass
module Cache = Phoenix_cache.Cache
module Budget = Phoenix_util.Budget
module Workloads = Phoenix_experiments.Workloads

let cache_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phoenix-template-test-%d" (Unix.getpid ()))
  in
  Unix.putenv "PHOENIX_CACHE_DIR" d;
  d

let fresh_cache () =
  ignore (Cache.Persist.clear ~dir:cache_dir ());
  Cache.clear_memory ();
  Cache.reset_stats ()

(* Bit-exact circuit rendering: [Gate.to_string] prints consts with %g
   (lossy) and [Gate.equal] treats all NaNs as equal, so angles are
   appended as raw IEEE-754 bits. *)
let gate_bits g =
  let bits =
    List.rev
      (Gate.fold_angles (fun acc t -> Int64.bits_of_float t :: acc) [] g)
  in
  Gate.to_string g ^ "|"
  ^ String.concat "," (List.map (Printf.sprintf "%Lx") bits)

let circuit_bits c = List.map gate_bits (Circuit.gates c)

let check_bit_identical what expected actual =
  Alcotest.(check (list string)) what (circuit_bits expected)
    (circuit_bits actual)

(* A base-block program (one parameter per block, angles scaled by the
   parameter) in both concrete and symbolic form. *)
let concrete_blocks base_blocks theta =
  List.mapi
    (fun k block ->
      List.map (fun (p, base) -> (p, theta.(k) *. base)) block)
    base_blocks

let symbolic_blocks base_blocks =
  List.mapi
    (fun k block ->
      List.map
        (fun (p, base) -> (p, Angle.param ~index:k ~scale:base))
        block)
    base_blocks

let param_names base_blocks =
  Array.init (List.length base_blocks) (Printf.sprintf "theta%d")

(* Deterministic generic angles, bounded away from every degenerate
   point (0 and multiples of π would let the const path drop or merge
   rotations the slot path must keep). *)
let generic_theta ?(seed = 0) n =
  Array.init n (fun k ->
      let x = Float.rem (0.327 +. (0.691 *. float (k + (7 * seed)))) 2.9 in
      0.11 +. x)

let lih = lazy (List.hd (Workloads.uccsd_suite ~labels:[ "LiH_frz_JW" ] ()))

let qaoa_blocks =
  lazy
    (let case =
       List.find
         (fun (c : Workloads.qaoa_case) -> c.Workloads.qlabel = "Reg3-16")
         (Workloads.qaoa_suite ())
     in
     (case.Workloads.qn, List.map (fun g -> [ g ]) case.Workloads.qgadgets))

let option_combos =
  lazy
    (let heavy_hex = Workloads.heavy_hex () in
     [
       ("logical-cnot", Compiler.default_options);
       ("su4", { Compiler.default_options with Compiler.isa = Compiler.Su4_isa });
       ( "heavy-hex",
         {
           Compiler.default_options with
           Compiler.target = Compiler.Hardware heavy_hex;
         } );
       ("exact", { Compiler.default_options with Compiler.exact = true });
     ])

let bind_equals_compile ~what ~options n base_blocks theta =
  let tmpl =
    Compiler.compile_template ~options ~params:(param_names base_blocks) n
      (symbolic_blocks base_blocks)
  in
  let direct =
    Registry.compile_blocks ~options Registry.phoenix n
      (concrete_blocks base_blocks theta)
  in
  let bound, trace = Template.bind_with_trace tmpl theta in
  Alcotest.(check (list string))
    (what ^ ": bind ran only the bind step")
    [ "bind" ]
    (List.map (fun (e : Pass.trace_entry) -> e.Pass.pass) trace);
  check_bit_identical
    (what ^ ": bind == compile")
    direct.Compiler.circuit bound

let test_golden_lih () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let theta = generic_theta (List.length base) in
  List.iter
    (fun (name, options) ->
      bind_equals_compile ~what:("LiH " ^ name) ~options case.Workloads.n base
        theta)
    (Lazy.force option_combos)

let test_golden_qaoa () =
  fresh_cache ();
  let n, base = Lazy.force qaoa_blocks in
  let theta = generic_theta ~seed:3 (List.length base) in
  List.iter
    (fun (name, options) ->
      bind_equals_compile ~what:("QAOA " ^ name) ~options n base theta)
    (Lazy.force option_combos)

let test_rebind_many () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let options = Compiler.default_options in
  let tmpl =
    Compiler.compile_template ~options ~params:(param_names base)
      case.Workloads.n (symbolic_blocks base)
  in
  for seed = 1 to 5 do
    let theta = generic_theta ~seed (List.length base) in
    let direct =
      Registry.compile_blocks ~options Registry.phoenix case.Workloads.n
        (concrete_blocks base theta)
    in
    check_bit_identical
      (Printf.sprintf "rebind #%d == compile" seed)
      direct.Compiler.circuit (Template.bind tmpl theta)
  done

(* Every declared parameter stays live through simplify/assembly/
   peephole/lowering: perturbing any single component changes the bound
   circuit's angle bits. *)
let test_all_parameters_live () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let arity = List.length base in
  let tmpl =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  Alcotest.(check bool)
    "slot count covers the arity" true
    (Template.slot_count tmpl >= arity);
  let theta = generic_theta arity in
  let reference = circuit_bits (Template.bind tmpl theta) in
  for k = 0 to arity - 1 do
    let theta' = Array.copy theta in
    theta'.(k) <- theta'.(k) +. 0.173;
    let perturbed = circuit_bits (Template.bind tmpl theta') in
    Alcotest.(check bool)
      (Printf.sprintf "parameter %d reaches the circuit" k)
      false
      (List.equal String.equal reference perturbed)
  done

let test_bind_arity_mismatch () =
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let tmpl =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  Alcotest.check_raises "short vector rejected"
    (Invalid_argument
       (Printf.sprintf "Template.bind: 1 value for %d parameters"
          (List.length base)))
    (fun () -> ignore (Template.bind tmpl [| 0.5 |]))

(* qcheck differential: random block programs, random generic angles. *)
let nonzero_angle_gen =
  QCheck2.Gen.map
    (fun x -> if Float.abs x < 0.05 then x +. 0.11 else x)
    Helpers.angle_gen

let random_blocks_gen n =
  let open QCheck2.Gen in
  let block =
    let* len = int_range 1 3 in
    list_size (return len)
      (pair (Helpers.nontrivial_pauli_string_gen n) nonzero_angle_gen)
  in
  let* blocks = int_range 1 4 in
  list_size (return blocks) block

let qcheck_differential =
  QCheck2.Test.make ~count:40
    ~name:"bind(compile_template) == compile (random programs and angles)"
    QCheck2.Gen.(
      let n = 4 in
      pair (random_blocks_gen n)
        (list_size (return 4) nonzero_angle_gen))
    (fun (base_blocks, theta_list) ->
      fresh_cache ();
      let n = 4 in
      let arity = List.length base_blocks in
      let theta = Array.of_list (List.filteri (fun i _ -> i < arity) theta_list) in
      let theta =
        if Array.length theta < arity then
          Array.init arity (fun i ->
              if i < Array.length theta then theta.(i) else 0.37 +. float i)
        else theta
      in
      let tmpl =
        Compiler.compile_template ~params:(param_names base_blocks) n
          (symbolic_blocks base_blocks)
      in
      let direct =
        Registry.compile_blocks Registry.phoenix n
          (concrete_blocks base_blocks theta)
      in
      List.equal String.equal
        (circuit_bits direct.Compiler.circuit)
        (circuit_bits (Template.bind tmpl theta)))

(* The synthesis cache keys on structure, not angle bits: a second
   template compile of the same program hits every group even though its
   slots are fresh arena ids, and the bound results stay bit-identical
   (mem tier here, disk tier below). *)
let test_cache_hits_across_compiles () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let theta = generic_theta (List.length base) in
  let t1 =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  let t2 =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  let stats2 = (Template.report t2).Compiler.cache_stats in
  Alcotest.(check bool)
    "second template compile hits the cache" true
    (stats2.Cache.hits > 0 && stats2.Cache.misses = 0);
  check_bit_identical "warm bind == cold bind"
    (Template.bind t1 theta) (Template.bind t2 theta)

let test_cache_disk_roundtrip () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let theta = generic_theta ~seed:2 (List.length base) in
  let options = { Compiler.default_options with Compiler.cache = Cache.Disk } in
  let t1 =
    Compiler.compile_template ~options ~params:(param_names base)
      case.Workloads.n (symbolic_blocks base)
  in
  (* Drop the memory tier: the second compile must replay from disk,
     remapping the stored rank-relative slots onto fresh arena ids. *)
  Cache.clear_memory ();
  Cache.reset_stats ();
  let t2 =
    Compiler.compile_template ~options ~params:(param_names base)
      case.Workloads.n (symbolic_blocks base)
  in
  let stats2 = (Template.report t2).Compiler.cache_stats in
  Alcotest.(check bool)
    "second template compile replays from disk" true
    (stats2.Cache.disk_hits > 0);
  check_bit_identical "disk-replayed bind == cold bind"
    (Template.bind t1 theta) (Template.bind t2 theta)

(* Templates and concrete compiles share cache buckets without false
   hits: interleaving them must not change either one's output. *)
let test_cache_no_cross_contamination () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let theta = generic_theta ~seed:4 (List.length base) in
  let cold =
    let () = fresh_cache () in
    Registry.compile_blocks Registry.phoenix case.Workloads.n
      (concrete_blocks base theta)
  in
  fresh_cache ();
  let tmpl =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  let direct =
    Registry.compile_blocks Registry.phoenix case.Workloads.n
      (concrete_blocks base theta)
  in
  check_bit_identical "concrete compile unchanged by template traffic"
    cold.Compiler.circuit direct.Compiler.circuit;
  check_bit_identical "bind unchanged by concrete traffic"
    cold.Compiler.circuit (Template.bind tmpl theta)

(* Budget expiry during a template compile surfaces as either
   [Pass.Interrupted] (no template at all) or [Pass.Failed] (a ladder
   absorbed the expiry — degraded results refuse to template); it never
   yields a partially-slotted template.  A re-run with a fresh budget is
   clean. *)
let test_budget_interrupt () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let attempt checks =
    let options =
      {
        Compiler.default_options with
        Compiler.budget = Budget.after_checks checks;
        Compiler.cache = Cache.Off;
      }
    in
    match
      Compiler.compile_template ~options ~params:(param_names base)
        case.Workloads.n (symbolic_blocks base)
    with
    | tmpl -> `Template tmpl
    | exception Pass.Interrupted _ -> `Interrupted
    | exception Pass.Failed { pass; _ } -> `Failed pass
  in
  List.iter
    (fun outcome ->
      match outcome with
      | `Template tmpl ->
        (* If a tiny budget somehow sufficed, the template must still be
           fully certified: binding works and covers every parameter. *)
        ignore (Template.bind tmpl (generic_theta (List.length base)))
      | `Interrupted -> ()
      | `Failed pass ->
        Alcotest.(check string)
          "degradations are refused by the parametrize pass" "parametrize"
          pass)
    (List.map attempt [ 1; 5; 50; 500 ]);
  (* Clean re-run after the interrupts. *)
  fresh_cache ();
  let tmpl =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  let theta = generic_theta (List.length base) in
  let direct =
    Registry.compile_blocks Registry.phoenix case.Workloads.n
      (concrete_blocks base theta)
  in
  check_bit_identical "clean re-run after interrupts"
    direct.Compiler.circuit (Template.bind tmpl theta)

let test_parametrize_in_trace () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let tmpl =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  let trace = (Template.report tmpl).Compiler.trace in
  Alcotest.(check bool)
    "parametrize is the terminal pass" true
    (match List.rev trace with
    | (e : Pass.trace_entry) :: _ -> e.Pass.pass = "parametrize"
    | [] -> false)

let test_arity_violation_fails () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  (* Declare one parameter fewer than the slots reference. *)
  let params =
    Array.init
      (List.length base - 1)
      (Printf.sprintf "theta%d")
  in
  Alcotest.(check bool)
    "undeclared parameter is refused" true
    (match
       Compiler.compile_template ~params case.Workloads.n
         (symbolic_blocks base)
     with
    | _ -> false
    | exception Pass.Failed { pass = "parametrize"; _ } -> true)

(* Batch binds share one Angle arena snapshot; each element must still
   be gate-for-gate, bit-for-bit identical to a standalone bind. *)
let test_bind_batch_equals_sequential () =
  fresh_cache ();
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let arity = List.length base in
  let tmpl =
    Compiler.compile_template ~params:(param_names base) case.Workloads.n
      (symbolic_blocks base)
  in
  let thetas = List.init 7 (fun seed -> generic_theta ~seed arity) in
  let batch = Template.bind_batch tmpl thetas in
  Alcotest.(check int) "batch length" (List.length thetas) (List.length batch);
  List.iteri
    (fun k (theta, bound) ->
      check_bit_identical
        (Printf.sprintf "batch element %d == bind" k)
        (Template.bind tmpl theta) bound)
    (List.combine thetas batch);
  Alcotest.(check (list (list string))) "empty batch" []
    (List.map circuit_bits (Template.bind_batch tmpl []));
  Alcotest.check_raises "batch arity checked up front"
    (Invalid_argument
       (Printf.sprintf "Template.bind_batch: 1 value for %d parameters" arity))
    (fun () ->
      ignore (Template.bind_batch tmpl [ generic_theta arity; [| 0.5 |] ]))

let test_vqe_template_energy () =
  fresh_cache ();
  let spec =
    {
      Phoenix_ham.Uccsd.name = "H2_like";
      n_spatial = 2;
      n_electrons = 2;
      frozen = 0;
    }
  in
  let problem =
    Phoenix_vqe.Vqe.uccsd_problem Phoenix_ham.Fermion.Jordan_wigner spec
  in
  let ansatz = problem.Phoenix_vqe.Vqe.ansatz in
  let tmpl = Phoenix_vqe.Ansatz.template ansatz in
  let theta =
    generic_theta ~seed:5 (Phoenix_vqe.Ansatz.num_parameters ansatz)
  in
  let direct = Phoenix_vqe.Vqe.energy problem theta in
  let bound =
    Phoenix_vqe.Vqe.energy_of_circuit problem
      (Phoenix_vqe.Ansatz.bind tmpl theta)
  in
  Alcotest.(check (float 0.0)) "template energy == direct energy" direct bound

let () =
  Alcotest.run "template"
    [
      ( "bind == compile",
        [
          Alcotest.test_case "golden LiH (all option combos)" `Slow
            test_golden_lih;
          Alcotest.test_case "golden QAOA (all option combos)" `Slow
            test_golden_qaoa;
          Alcotest.test_case "rebind sweep" `Quick test_rebind_many;
          QCheck_alcotest.to_alcotest qcheck_differential;
        ] );
      ( "slots",
        [
          Alcotest.test_case "all parameters live" `Quick
            test_all_parameters_live;
          Alcotest.test_case "bind arity mismatch" `Quick
            test_bind_arity_mismatch;
          Alcotest.test_case "parametrize in trace" `Quick
            test_parametrize_in_trace;
          Alcotest.test_case "arity violation refused" `Quick
            test_arity_violation_fails;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits across template compiles" `Quick
            test_cache_hits_across_compiles;
          Alcotest.test_case "disk round-trip" `Quick
            test_cache_disk_roundtrip;
          Alcotest.test_case "no cross-contamination" `Quick
            test_cache_no_cross_contamination;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "budget interrupt yields no partial template"
            `Quick test_budget_interrupt;
        ] );
      ( "batch",
        [
          Alcotest.test_case "bind_batch == sequential binds" `Quick
            test_bind_batch_equals_sequential;
        ] );
      ( "vqe",
        [
          Alcotest.test_case "template energy == direct energy" `Quick
            test_vqe_template_energy;
        ] );
    ]
