(* The pipeline registry: golden-output regressions pinning the PHOENIX
   pipeline bit-for-bit to the pre-refactor compiler on the paper's
   UCCSD and QAOA presets, baseline digests through the same registry,
   the telescoping invariant of per-pass traces (deterministic over
   every registered pipeline plus a qcheck property over random gadget
   programs), and the pass-boundary hooks. *)

module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Registry = Phoenix_pipeline.Registry
module Hooks = Phoenix_pipeline.Hooks
module Finding = Phoenix_analysis.Finding
module Diag = Phoenix_verify.Diag
module Topology = Phoenix_topology.Topology

let digest c =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Gate.to_string (Circuit.gates c))))

let uccsd =
  lazy
    (let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
     Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
       b.Phoenix_ham.Molecules.spec)

let qaoa =
  lazy
    (Phoenix_ham.Qaoa.maxcut_cost
       (List.assoc "Reg3-16" (Phoenix_ham.Qaoa.benchmark_suite ())))

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "pipeline %S not registered" name

let opts ?(exact = false) ?(verify = false) ?(peephole = true) ?target ?isa ()
    =
  {
    Compiler.default_options with
    exact;
    verify;
    peephole;
    target = Option.value ~default:Compiler.Logical target;
    isa = Option.value ~default:Compiler.Cnot_isa isa;
  }

let workload spec =
  match Phoenix_serve.Workload.of_spec spec with
  | Ok h -> h
  | Error msg -> Alcotest.failf "%s: %s" spec msg

(* --- golden outputs: PHOENIX is bit-identical across the refactor ---- *)

let check_report name ~md5 ~two_q ~depth_2q ~one_q ~swaps ~logical_two_q
    (r : Compiler.report) =
  Alcotest.(check string) (name ^ " digest") md5 (digest r.Compiler.circuit);
  Alcotest.(check int) (name ^ " two_q") two_q r.Compiler.two_q_count;
  Alcotest.(check int) (name ^ " depth_2q") depth_2q r.Compiler.depth_2q;
  Alcotest.(check int) (name ^ " one_q") one_q r.Compiler.one_q_count;
  Alcotest.(check int) (name ^ " swaps") swaps r.Compiler.num_swaps;
  Alcotest.(check int)
    (name ^ " logical_two_q")
    logical_two_q r.Compiler.logical_two_q

let test_phoenix_golden_uccsd () =
  let h = Lazy.force uccsd in
  let phoenix = entry "phoenix" in
  let hh = Topology.ibm_manhattan () in
  let go options = Registry.compile ~options phoenix h in
  check_report "default" ~md5:"7d48fb3580566670e9c516844bd872e9" ~two_q:336
    ~depth_2q:318 ~one_q:932 ~swaps:0 ~logical_two_q:336
    (go (opts ()));
  check_report "exact" ~md5:"2653091b6f8d67a9652b7659c13a114e" ~two_q:366
    ~depth_2q:350 ~one_q:970 ~swaps:0 ~logical_two_q:366
    (go (opts ~exact:true ()));
  check_report "su4" ~md5:"a0d4a70295c4d7776227f594e5510949" ~two_q:339
    ~depth_2q:305 ~one_q:0 ~swaps:0 ~logical_two_q:339
    (go (opts ~isa:Compiler.Su4_isa ()));
  check_report "heavyhex" ~md5:"57a7a78f231e6e15db126a62da89880c" ~two_q:1159
    ~depth_2q:937 ~one_q:1060 ~swaps:283 ~logical_two_q:332
    (go (opts ~target:(Compiler.Hardware hh) ()));
  (* verification is pure observation: same bits as the default run *)
  check_report "verify" ~md5:"7d48fb3580566670e9c516844bd872e9" ~two_q:336
    ~depth_2q:318 ~one_q:932 ~swaps:0 ~logical_two_q:336
    (go (opts ~verify:true ()))

let test_phoenix_golden_qaoa () =
  let h = Lazy.force qaoa in
  let phoenix = entry "phoenix" in
  let hh = Topology.ibm_manhattan () in
  let go options = Registry.compile ~options phoenix h in
  check_report "default" ~md5:"af92c9b8ba1d6b29d8f558db7be67665" ~two_q:48
    ~depth_2q:22 ~one_q:24 ~swaps:0 ~logical_two_q:48
    (go (opts ()));
  check_report "exact" ~md5:"982c5d8dc8498f6d666ef2224fab3035" ~two_q:48
    ~depth_2q:14 ~one_q:24 ~swaps:0 ~logical_two_q:48
    (go (opts ~exact:true ()));
  check_report "heavyhex" ~md5:"8c595a2b87bb915b30abf42915a52533" ~two_q:115
    ~depth_2q:35 ~one_q:24 ~swaps:23 ~logical_two_q:48
    (go (opts ~target:(Compiler.Hardware hh) ()))

(* Goldens past the 16 logical qubits of the presets above, where the
   ordering cost's register-wide terms (untouched qubits' endian entries,
   untouched rows of the Eq. 7 distance matrices) carry most of the
   weight: a 250-qubit QAOA graph, a 5×5 Hubbard lattice and a routed
   water molecule; and a 100-qubit Heisenberg chain, whose group on
   qubits 61 and 62 straddles two bit-vector words, so synthesis on the
   group's support must keep the register-wide order of its compressed
   core. *)
let test_phoenix_golden_at_scale () =
  let phoenix = entry "phoenix" in
  let go ?target spec =
    Registry.compile ~options:(opts ?target ()) phoenix (workload spec)
  in
  check_report "Reg3-250" ~md5:"606a1ec96316f5c5791f58ac5957f4ab" ~two_q:750
    ~depth_2q:34 ~one_q:375 ~swaps:0 ~logical_two_q:750
    (go "qaoa:Reg3-250");
  check_report "fermi-hubbard 5x5" ~md5:"3ddf03c748c7cf195ca462839c045840"
    ~two_q:1168 ~depth_2q:924 ~one_q:1324 ~swaps:0 ~logical_two_q:1168
    (go "fermi-hubbard:5x5");
  check_report "H2O_frz_BK heavyhex" ~md5:"2420e96ba0df06cb4bcfe25efa38be67"
    ~two_q:8127 ~depth_2q:5692 ~one_q:6443 ~swaps:2003 ~logical_two_q:2158
    (go
       ~target:(Compiler.Hardware (Topology.ibm_manhattan ()))
       "uccsd:H2O_frz_BK");
  check_report "heisenberg:100" ~md5:"ea2226aa2947c97c4f395f625b1b2f00"
    ~two_q:396 ~depth_2q:396 ~one_q:495 ~swaps:0 ~logical_two_q:396
    (go "heisenberg:100")

(* The baselines' registry pipelines are pinned to the digests of the
   circuits their original standalone compilers produced. *)
let test_baseline_golden () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  List.iter
    (fun (name, h, md5) ->
      let r = Registry.compile ~options:(opts ()) (entry name) h in
      Alcotest.(check string) name md5 (digest r.Compiler.circuit))
    [
      "naive", uccsd, "74a968258657dbd904795fe03d7ea396";
      "tket", uccsd, "0d1b45dfa30edc3f2baffcbe6230887c";
      "paulihedral", uccsd, "ae99864cbd0b832f4d12285710e8f667";
      "tetris", uccsd, "58257966247b7555aa65cee4b2f9675c";
      "naive", qaoa, "982c5d8dc8498f6d666ef2224fab3035";
      "tket", qaoa, "b840bd6a0326ade58f1ce8bca9b0137b";
      "paulihedral", qaoa, "c281a36cbab77760b6c2eea2041bb5a8";
      "tetris", qaoa, "c281a36cbab77760b6c2eea2041bb5a8";
    ];
  let r =
    Registry.compile ~options:(opts ~peephole:false ()) (entry "tket") uccsd
  in
  Alcotest.(check string) "tket nopeep" "c1baccc1f337536ba6ae9a4d8aea460c"
    (digest r.Compiler.circuit);
  let r =
    Registry.compile
      ~options:(opts ~target:(Compiler.Hardware (Topology.line 16)) ())
      (entry "2qan") qaoa
  in
  Alcotest.(check string) "2qan" "806cb3996ac06008e0c49e4f9f9de1af"
    (digest r.Compiler.circuit);
  Alcotest.(check int) "2qan swaps" 59 r.Compiler.num_swaps

(* --- the telescoping invariant of traces ----------------------------- *)

let metrics_list (m : Pass.metrics) =
  [ m.Pass.gates; m.Pass.one_q; m.Pass.two_q; m.Pass.depth_2q ]

let delta_sum trace =
  List.fold_left
    (fun acc e -> Pass.metrics_add acc (Pass.entry_delta e))
    Pass.metrics_zero trace

let telescopes (r : Compiler.report) =
  delta_sum r.Compiler.trace = Pass.metrics_of r.Compiler.circuit

let test_trace_telescopes_all_pipelines () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  let hh = Topology.ibm_manhattan () in
  List.iter
    (fun (name, h, options) ->
      let r = Registry.compile ~options (entry name) h in
      Alcotest.(check bool) (name ^ " trace nonempty") true (r.Compiler.trace <> []);
      Alcotest.(check (list int))
        (name ^ " deltas sum to final metrics")
        (metrics_list (Pass.metrics_of r.Compiler.circuit))
        (metrics_list (delta_sum r.Compiler.trace)))
    [
      "phoenix", uccsd, opts ();
      "phoenix", uccsd, opts ~target:(Compiler.Hardware hh) ();
      "phoenix", uccsd, opts ~isa:Compiler.Su4_isa ();
      "tket", uccsd, opts ();
      "paulihedral", uccsd, opts ~target:(Compiler.Hardware hh) ();
      "tetris", uccsd, opts ~isa:Compiler.Su4_isa ();
      "naive", uccsd, opts ();
      "2qan", qaoa, opts ~target:(Compiler.Hardware (Topology.line 16)) ();
    ]

(* Each trace entry's snapshots are the metrics of the circuits its pass
   received and returned, and the report's counts are the last entry's
   [after]: the pass manager carries each [after] forward as the next
   [before] instead of recounting the same circuit. *)
let test_trace_snapshots_match_circuits () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  let seen = ref [] in
  let hook ~pass:_ ~before ~after ~seconds:_ =
    seen :=
      ( metrics_list (Pass.metrics_of before.Pass.circuit),
        metrics_list (Pass.metrics_of after.Pass.circuit) )
      :: !seen
  in
  List.iter
    (fun (name, h, options) ->
      seen := [];
      let r = Registry.compile ~options ~hooks:[ hook ] (entry name) h in
      Alcotest.(check (list (pair (list int) (list int))))
        (name ^ " snapshots")
        (List.rev !seen)
        (List.map
           (fun (e : Pass.trace_entry) ->
             (metrics_list e.Pass.before, metrics_list e.Pass.after))
           r.Compiler.trace);
      let final = Pass.metrics_of r.Compiler.circuit in
      Alcotest.(check (list int))
        (name ^ " report counts")
        [ final.Pass.one_q; final.Pass.two_q; final.Pass.depth_2q ]
        [ r.Compiler.one_q_count; r.Compiler.two_q_count; r.Compiler.depth_2q ])
    [
      "phoenix", uccsd, opts ();
      "phoenix", qaoa, opts ~target:(Compiler.Hardware (Topology.line 16)) ();
      "tket", uccsd, opts ~isa:Compiler.Su4_isa ();
      "2qan", qaoa, opts ~target:(Compiler.Hardware (Topology.line 16)) ();
    ]

let prop_trace_telescopes =
  Helpers.qtest ~count:25 "trace telescopes on random gadget programs"
    (Helpers.terms_gen 4 8) (fun terms ->
      List.for_all
        (fun name ->
          telescopes (Registry.compile_gadgets (entry name) 4 terms))
        [ "phoenix"; "tket"; "paulihedral"; "tetris"; "naive" ])

(* --- the order pass scales linearly in the program ------------------- *)

(* Words the order pass allocates per gadget, on one domain with the
   synthesis cache off.  Allocation counts are deterministic where
   wall-clock times are not, so this is the form of the linear-time claim
   a test can gate on: any per-candidate cost that grows with the
   register width shows up as a per-gadget ratio far above one between a
   250- and a 1000-qubit QAOA graph. *)
let order_words_per_gadget spec =
  let h = workload spec in
  let options =
    { (opts ()) with Compiler.domains = 1; cache = Phoenix_cache.Cache.Off }
  in
  let r = Registry.compile ~options (entry "phoenix") h in
  match List.find_opt (fun e -> e.Pass.pass = "order") r.Compiler.trace with
  | Some e ->
    e.Pass.alloc_words
    /. float_of_int
         (List.length (Phoenix_ham.Hamiltonian.trotter_gadgets h))
  | None -> Alcotest.failf "%s: no order entry in the trace" spec

let test_order_allocation_linear () =
  let small = order_words_per_gadget "qaoa:Reg3-250" in
  let large = order_words_per_gadget "qaoa:Reg3-1000" in
  let ratio = large /. small in
  if ratio > 1.5 then
    Alcotest.failf
      "order words per gadget grew %.2f× from Reg3-250 (%.0f) to Reg3-1000 \
       (%.0f); linear-time ordering keeps it within 1.5×"
      ratio small large

(* --- group and simplify cost the group, not the register --------------- *)

(* Words the [pass] allocates per unit (gadget or group) on one domain,
   with the memory cache emptied first.  Every QAOA group is a two-qubit
   ZZ rotation, so work that follows the group's support keeps the
   ratio between a 1000- and a 250-qubit graph near one; work that
   builds register-wide tableaux, keys or strings per group grows with
   the register. *)
let words_per spec ~pass ~per ~cache =
  let h = workload spec in
  let options = { (opts ()) with Compiler.domains = 1; cache } in
  Phoenix_cache.Cache.clear_memory ();
  let r = Registry.compile ~options (entry "phoenix") h in
  let units =
    match per with
    | `Gadget -> List.length (Phoenix_ham.Hamiltonian.trotter_gadgets h)
    | `Group -> r.Compiler.num_groups
  in
  match List.find_opt (fun e -> e.Pass.pass = pass) r.Compiler.trace with
  | Some e -> e.Pass.alloc_words /. float_of_int units
  | None -> Alcotest.failf "%s: no %s entry in the trace" spec pass

let test_group_work_flat_in_register () =
  List.iter
    (fun (label, pass, per, cache) ->
      let small = words_per "qaoa:Reg3-250" ~pass ~per ~cache in
      let large = words_per "qaoa:Reg3-1000" ~pass ~per ~cache in
      let ratio = large /. small in
      if ratio > 1.5 then
        Alcotest.failf
          "%s grew %.2f× from Reg3-250 (%.0f) to Reg3-1000 (%.0f); work on \
           the group's support keeps it within 1.5×"
          label ratio small large)
    [
      ("simplify words per group (memory cache)", "simplify", `Group,
        Phoenix_cache.Cache.Mem);
      ("simplify words per group (cache off)", "simplify", `Group,
        Phoenix_cache.Cache.Off);
      ("group words per gadget", "group", `Gadget, Phoenix_cache.Cache.Off);
    ]

(* --- per-group --verify costs the group, not the register -------------- *)

(* Words the per-group check allocates per group: the simplify pass's
   allocation with [verify] minus without, over the group count (one
   domain, cache off).  A check that builds a register-wide frame for
   every group grows with the register; one on the group's support
   does not. *)
let verify_words_per_group spec =
  let h = workload spec in
  let simplify verify =
    let options =
      { (opts ~verify ()) with Compiler.domains = 1; cache = Phoenix_cache.Cache.Off }
    in
    let r = Registry.compile ~options (entry "phoenix") h in
    match List.find_opt (fun e -> e.Pass.pass = "simplify") r.Compiler.trace with
    | Some e -> (e.Pass.alloc_words, r.Compiler.num_groups)
    | None -> Alcotest.failf "%s: no simplify entry in the trace" spec
  in
  let checked, groups = simplify true in
  let plain, _ = simplify false in
  (checked -. plain) /. float_of_int groups

let test_verify_allocation_per_group () =
  let small = verify_words_per_group "qaoa:Reg3-250" in
  let large = verify_words_per_group "qaoa:Reg3-1000" in
  let ratio = large /. small in
  if ratio > 1.5 then
    Alcotest.failf
      "verify words per group grew %.2f× from Reg3-250 (%.0f) to Reg3-1000 \
       (%.0f); checking on the group's support keeps it within 1.5×"
      ratio small large

(* --- routing allocates per emitted gate, not per scored layout -------- *)

(* Words the route pass allocates per 2Q gate it leaves on heavy-hex
   (one domain, cache off): the SABRE refinement on [uccsd:H2O_frz_BK]
   and the commuting multistart on [qaoa:Rand-24].  A router that copies
   the layout for every candidate SWAP it scores spends about 4.4k words
   per gate on H2O_frz_BK; scoring candidates in place from the moved
   qubits' gates and placing on flat arrays leaves mostly the routed and
   lowered gates themselves (55 and 135 words per gate when the bounds
   were set, about 1.3× below them). *)
let route_words_per_gate spec =
  let options =
    {
      (opts ~target:(Compiler.Hardware (Topology.ibm_manhattan ())) ()) with
      Compiler.domains = 1;
      cache = Phoenix_cache.Cache.Off;
    }
  in
  let r = Registry.compile ~options (entry "phoenix") (workload spec) in
  match List.find_opt (fun e -> e.Pass.pass = "route") r.Compiler.trace with
  | Some e ->
    (e.Pass.alloc_words /. float_of_int e.Pass.after.Pass.two_q, e)
  | None -> Alcotest.failf "%s: no route entry in the trace" spec

let test_route_allocation_per_gate () =
  List.iter
    (fun (spec, bound) ->
      let per_gate, e = route_words_per_gate spec in
      if per_gate > bound then
        Alcotest.failf
          "%s: route allocated %.0f words per routed 2Q gate (%.0f words, %d \
           gates); the router stays within %.0f"
          spec per_gate e.Pass.alloc_words e.Pass.after.Pass.two_q bound)
    [ ("uccsd:H2O_frz_BK", 71.0); ("qaoa:Rand-24", 175.0) ]

(* --- per-pass allocation does not depend on the minor heap ------------ *)

(* Run [f] with a minor heap of [words] words; the previous GC settings
   are restored.  Major words counted only when a collection flushes the
   domain's counters would move between trace entries as the minor heap
   size moves the collections. *)
let with_minor_heap words f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = words };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

let one_domain_no_cache () =
  { (opts ()) with Compiler.domains = 1; cache = Phoenix_cache.Cache.Off }

(* Per-entry words of a one-domain, cache-off compile of [spec] plus a
   bind of its template with every parameter at 1.0. *)
let entry_words ~minor_heap spec =
  let options = one_domain_no_cache () in
  let tmpl =
    match
      Registry.compile_template ~options (entry "phoenix") (workload spec)
    with
    | Ok t -> t
    | Error msg -> Alcotest.failf "%s: %s" spec msg
  in
  let theta = Array.make (Phoenix.Template.num_parameters tmpl) 1.0 in
  with_minor_heap minor_heap (fun () ->
      let r = Registry.compile ~options (entry "phoenix") (workload spec) in
      let _, bind = Phoenix.Template.bind_with_trace tmpl theta in
      List.map
        (fun e -> e.Pass.pass, e.Pass.alloc_words)
        (r.Compiler.trace @ bind))

let test_alloc_independent_of_minor_heap () =
  List.iter
    (fun spec ->
      (* a first run takes the one-time initializations *)
      ignore (entry_words ~minor_heap:(Gc.get ()).Gc.minor_heap_size spec);
      let small = entry_words ~minor_heap:65536 spec in
      let large = entry_words ~minor_heap:(8 * 1024 * 1024) spec in
      List.iter2
        (fun (pass, a) (_, b) ->
          if a < 0.0 || b < 0.0 then
            Alcotest.failf "%s: pass %s read %.0f / %.0f words" spec pass a b;
          if a <> b then
            Alcotest.failf
              "%s: pass %s allocated %.0f words with a 64k-word minor heap \
               and %.0f with an 8M-word one"
              spec pass a b)
        small large)
    [ "qaoa:Reg3-250"; "uccsd:CH2_cmplt_BK" ]

(* --- lowering allocates per output gate, not per stage ------------------ *)

(* Words the [lower] pass allocates per gate it leaves on
   [uccsd:CH2_cmplt_BK] (one domain, cache off).  Gate lists rebuilt by
   every stage, history lists and string parity keys cost about 204
   words per output gate; one flat buffer through peephole, rebase and
   folding leaves mostly the output gates themselves. *)
let test_lower_allocation_per_gate () =
  let options = one_domain_no_cache () in
  let r =
    Registry.compile ~options (entry "phoenix") (workload "uccsd:CH2_cmplt_BK")
  in
  match List.find_opt (fun e -> e.Pass.pass = "lower") r.Compiler.trace with
  | Some e ->
    let gates = e.Pass.after.Pass.gates in
    let per_gate = e.Pass.alloc_words /. float_of_int gates in
    if per_gate > 51.0 then
      Alcotest.failf
        "lower allocated %.0f words per output gate (%.0f words, %d gates); \
         the buffer engine stays within 51"
        per_gate e.Pass.alloc_words gates
  | None -> Alcotest.fail "no lower entry in the trace"

(* --- simplify allocates per group, not per scored candidate ------------ *)

(* Words the [simplify] pass allocates per group on [uccsd:CH2_cmplt_BK]
   (one domain, cache off).  A greedy search that allocates for every
   candidate it scores spends about 16.7k words per group here; a scan
   that allocates per epoch leaves mostly the synthesized circuits.  The
   tableau self-audit (PHOENIX_BSF_AUDIT) recomputes the statistics after
   every mutation and allocates about 8k words per group of its own, so
   the gate holds the default build only and skips under the audit. *)
let test_simplify_allocation_per_group () =
  (match Sys.getenv_opt "PHOENIX_BSF_AUDIT" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> Alcotest.skip ());
  let options = one_domain_no_cache () in
  let r =
    Registry.compile ~options (entry "phoenix") (workload "uccsd:CH2_cmplt_BK")
  in
  match List.find_opt (fun e -> e.Pass.pass = "simplify") r.Compiler.trace with
  | Some e ->
    let groups = r.Compiler.num_groups in
    let per_group = e.Pass.alloc_words /. float_of_int groups in
    if per_group > 8000.0 then
      Alcotest.failf
        "simplify allocated %.0f words per group (%.0f words, %d groups); the \
         pair scan stays within 8000"
        per_group e.Pass.alloc_words groups
  | None -> Alcotest.fail "no simplify entry in the trace"

(* --- allocation counts every domain ------------------------------------ *)

(* Simplify's words on [uccsd:LiH_frz_JW] (cache off) with two domains
   against one.  The pool's helper domains return their own counts to
   the pass, so the two agree up to the memo inserts that move between
   domains (two domains can both scan a state one would have scanned
   once). *)
let test_simplify_allocation_all_domains () =
  let simplify_words domains =
    let options =
      { (opts ()) with Compiler.domains; cache = Phoenix_cache.Cache.Off }
    in
    let r =
      Registry.compile ~options (entry "phoenix") (workload "uccsd:LiH_frz_JW")
    in
    match
      List.find_opt (fun e -> e.Pass.pass = "simplify") r.Compiler.trace
    with
    | Some e -> e.Pass.alloc_words
    | None -> Alcotest.fail "no simplify entry in the trace"
  in
  ignore (simplify_words 1);
  let one = simplify_words 1 and two = simplify_words 2 in
  if Float.abs (two -. one) > 0.1 *. one then
    Alcotest.failf
      "simplify allocated %.0f words on two domains and %.0f on one; the \
       count of every domain stays within 10%%"
      two one

(* --- a cache miss costs less than the synthesis it guards ------------- *)

(* Simplify's words with a fresh memory tier over its words with the cache
   off, one domain.  Nothing hits on CH2_cmplt_BK and few of Reg3-500's
   one-term groups do, so the ratio is what keying, looking up and storing
   a miss add to synthesis.  String keys (a canonical form, its MD5) and a
   marshalled copy of every stored circuit more than doubled it on
   Reg3-500. *)
let test_cache_miss_allocation () =
  List.iter
    (fun (spec, bound) ->
      let h = workload spec in
      let words cache =
        Phoenix_cache.Cache.clear_memory ();
        let options = { (opts ()) with Compiler.domains = 1; cache } in
        let r = Registry.compile ~options (entry "phoenix") h in
        match
          List.find_opt (fun e -> e.Pass.pass = "simplify") r.Compiler.trace
        with
        | Some e -> e.Pass.alloc_words
        | None -> Alcotest.failf "%s: no simplify entry in the trace" spec
      in
      let off = words Phoenix_cache.Cache.Off in
      let mem = words Phoenix_cache.Cache.Mem in
      Phoenix_cache.Cache.clear_memory ();
      if mem > bound *. off then
        Alcotest.failf
          "%s: simplify allocated %.0f words with the memory cache and %.0f \
           without (%.2f×); a miss stays within %.2f×"
          spec mem off (mem /. off) bound)
    [ ("qaoa:Reg3-500", 1.25); ("uccsd:CH2_cmplt_BK", 1.10) ]

(* --- registry surface ------------------------------------------------ *)

let test_registry_names () =
  Alcotest.(check (list string))
    "registry order"
    [ "phoenix"; "tket"; "paulihedral"; "tetris"; "2qan"; "naive" ]
    (Registry.names ())

let test_catalog_covers_all_pipelines () =
  let catalog = Registry.catalog () in
  Alcotest.(check bool) "nonempty" true (catalog <> []);
  List.iter
    (fun (c : Registry.catalog_entry) ->
      Alcotest.(check bool)
        (c.Registry.pass_name ^ " used somewhere")
        true
        (c.Registry.pipelines <> []))
    catalog;
  let used_by name =
    List.exists (fun c -> List.mem name c.Registry.pipelines) catalog
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in catalog") true (used_by name))
    (Registry.names ())

(* --- pass-boundary hooks --------------------------------------------- *)

let test_hooks_clean_on_real_pipelines () =
  let qaoa = Lazy.force qaoa in
  List.iter
    (fun name ->
      let findings = ref [] and diags = ref [] in
      let hooks = [ Hooks.lint findings; Hooks.translation_validate diags ] in
      let r = Registry.compile ~hooks ~options:(opts ()) (entry name) qaoa in
      ignore (r : Compiler.report);
      Alcotest.(check (list string))
        (name ^ " lint clean")
        []
        (List.filter_map
           (fun (pass, f) ->
             if f.Finding.severity = Finding.Error then
               Some (pass ^ ": " ^ Finding.to_string f)
             else None)
           !findings);
      Alcotest.(check (list string))
        (name ^ " translation validates")
        []
        (List.filter_map
           (fun (d : Diag.t) ->
             match d.Diag.severity with
             | Diag.Error -> Some (Diag.to_string d)
             | _ -> None)
           !diags);
      (* the validation hook actually fired *)
      Alcotest.(check bool) (name ^ " hook fired") true (!diags <> []))
    [ "phoenix"; "tket"; "paulihedral"; "tetris"; "naive" ]

(* --- Job: the request resolution both front ends share ----------------- *)

module Job = Phoenix_pipeline.Job

(* Every named QAOA graph resolves on its own to the Hamiltonian its
   suite builds; other labels are unknown.  The lattice Hubbard specs
   resolve to two spin orbitals per site. *)
let test_workload_specs () =
  let suites =
    Phoenix_ham.Qaoa.benchmark_suite () @ Phoenix_ham.Qaoa.scaling_suite ()
  in
  Alcotest.(check (list string))
    "suite labels"
    [
      "Rand-16"; "Rand-20"; "Rand-24"; "Reg3-16"; "Reg3-20"; "Reg3-24";
      "Reg3-100"; "Reg3-250"; "Reg3-500"; "Reg3-1000";
    ]
    (List.map fst suites);
  List.iter
    (fun (label, g) ->
      Alcotest.(check bool)
        ("qaoa:" ^ label) true
        (workload ("qaoa:" ^ label) = Phoenix_ham.Qaoa.maxcut_cost g))
    suites;
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (spec ^ " unknown") true
        (Result.is_error (Phoenix_serve.Workload.of_spec spec)))
    [ "qaoa:Reg3-18"; "qaoa:Rand-100"; "qaoa:" ];
  List.iter
    (fun (shape, sites) ->
      let spec = "fermi-hubbard:" ^ shape in
      Alcotest.(check int)
        spec (2 * sites)
        (Phoenix_ham.Hamiltonian.num_qubits (workload spec)))
    [ ("2x2", 4); ("2x3", 6); ("3x3", 9) ]

let test_job_topology_sizes () =
  let one_qubit =
    Phoenix_ham.Hamiltonian.make 1
      [ Phoenix_pauli.Pauli_term.make (Helpers.Pauli_string.of_string "Z") 0.5 ]
  in
  List.iter
    (fun (h, sizes) ->
      let n = Phoenix_ham.Hamiltonian.num_qubits h in
      List.iter
        (fun (name, size) ->
          match Job.resolve ~pipeline:"phoenix" ~topology:name h with
          | Error msg -> Alcotest.failf "%s: %s" name msg
          | Ok job ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s for %d qubits" name n)
              size
              (Option.map Topology.num_qubits (Job.topology job)))
        sizes)
    [
      ( workload "heisenberg:6",
        [
          ("all-to-all", None);
          ("heavy-hex", Some 64);
          ("line", Some 6);
          ("ring", Some 6);
          ("grid", Some 9);
        ] );
      ( one_qubit,
        [
          ("all-to-all", None);
          ("heavy-hex", Some 64);
          ("line", Some 2);
          ("ring", Some 3);
          ("grid", Some 1);
        ] );
    ]

let test_job_options () =
  match
    Job.resolve ~isa:Compiler.Su4_isa ~exact:true ~verify:true
      ~cache:Phoenix_cache.Cache.Off ~domains:1 ~pipeline:"tket"
      ~topology:"line" (workload "heisenberg:6")
  with
  | Error msg -> Alcotest.fail msg
  | Ok job ->
    let o = job.Job.options in
    Alcotest.(check string) "pipeline" "tket" job.Job.entry.Registry.name;
    Alcotest.(check bool)
      "request values kept" true
      (o.Compiler.isa = Compiler.Su4_isa
      && o.Compiler.exact && o.Compiler.verify
      && o.Compiler.cache = Phoenix_cache.Cache.Off
      && o.Compiler.domains = 1);
    Alcotest.(check bool)
      "hardware target" true
      (match o.Compiler.target with
      | Compiler.Hardware _ -> true
      | Compiler.Logical -> false);
    Alcotest.(check bool)
      "defaults elsewhere" true
      (o.Compiler.tau = Compiler.default_options.Compiler.tau
      && o.Compiler.lookahead = Compiler.default_options.Compiler.lookahead)

let test_job_rejections () =
  let heis = workload "heisenberg:6" and lih = workload "uccsd:LiH_frz_JW" in
  let rejected what want r =
    match r with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg -> Alcotest.(check string) what want msg
  in
  rejected "unknown topology"
    "unknown topology \"moebius\" (all-to-all, heavy-hex, line, ring, grid)"
    (Job.resolve ~pipeline:"phoenix" ~topology:"moebius" heis);
  rejected "unknown pipeline"
    "unknown pipeline \"nope\" (phoenix, tket, paulihedral, tetris, 2qan, \
     naive)"
    (Job.resolve ~pipeline:"nope" ~topology:"all-to-all" heis);
  rejected "2qan without a topology" "the 2qan pipeline needs a topology"
    (Job.resolve ~pipeline:"2qan" ~topology:"all-to-all" heis);
  rejected "2qan on a weight-3 workload"
    "the 2qan pipeline only handles 2-local workloads"
    (Job.resolve ~pipeline:"2qan" ~topology:"line" lih);
  Alcotest.(check bool)
    "2qan on a 2-local workload with a topology" true
    (Result.is_ok (Job.resolve ~pipeline:"2qan" ~topology:"line" heis));
  Alcotest.(check bool)
    "find_pipeline agrees" true
    (Job.find_pipeline "nope"
    = Error
        "unknown pipeline \"nope\" (phoenix, tket, paulihedral, tetris, \
         2qan, naive)")

(* The program a job exposes is the one [Registry.compile] compiles:
   compiling it directly gives the same circuit, for every pipeline on
   block-structured (UCCSD, Fermi-Hubbard) and flat (Heisenberg)
   workloads.  On LiH support grouping happens to rebuild the UCCSD
   blocks; on the 2x2 Hubbard lattice it does not, so there the check
   also pins which pipelines adopt blocks. *)
let test_job_program_differential () =
  List.iter
    (fun spec ->
      let h = workload spec in
      let n = Phoenix_ham.Hamiltonian.num_qubits h in
      List.iter
        (fun (e : Registry.entry) ->
          let label = spec ^ " / " ^ e.Registry.name in
          let topology =
            if e.Registry.requires_topology then "line" else "all-to-all"
          in
          match Job.resolve ~pipeline:e.Registry.name ~topology h with
          | Error msg ->
            Alcotest.(check bool)
              (label ^ " rejected only as not 2-local: " ^ msg)
              true
              (e.Registry.two_local_only
              && Phoenix_ham.Hamiltonian.max_weight h > 2)
          | Ok job ->
            let options = job.Job.options in
            let direct = Registry.compile ~options e h in
            let program = Job.program job in
            let via_program =
              match program.Compiler.chunk_blocks with
              | Some blocks -> Registry.compile_blocks ~options e n blocks
              | None ->
                Registry.compile_gadgets ~options e n
                  program.Compiler.chunk_gadgets
            in
            Alcotest.(check string) label
              (Phoenix_serve.Protocol.circuit_digest direct.Compiler.circuit)
              (Phoenix_serve.Protocol.circuit_digest
                 via_program.Compiler.circuit))
        Registry.all)
    [ "uccsd:LiH_frz_JW"; "heisenberg:6"; "fermi-hubbard:2x2" ]

(* Naive, TKET-like and 2QAN-like read the flat gadget program and
   ignore block structure, so [compile_blocks] is [compile_gadgets] of
   the concatenated blocks.  [Fidelity] compiles every column through
   [compile_blocks] on the strength of this. *)
let test_block_agnostic_entries () =
  let module W = Phoenix_experiments.Workloads in
  let same ?options label (e : Registry.entry) n blocks =
    let via_blocks = Registry.compile_blocks ?options e n blocks in
    let flat = Registry.compile_gadgets ?options e n (List.concat blocks) in
    Alcotest.(check bool)
      (label ^ " / " ^ e.Registry.name)
      true
      (Circuit.equal flat.Compiler.circuit via_blocks.Compiler.circuit)
  in
  List.iter
    (fun (c : W.uccsd_case) ->
      List.iter
        (fun e -> same c.W.label e c.W.n c.W.gadget_blocks)
        [ Registry.naive; Registry.tket ])
    (W.uccsd_suite ~labels:W.uccsd_quick_labels ());
  let options = opts ~target:(Compiler.Hardware (W.heavy_hex ())) () in
  List.iter
    (fun (c : W.qaoa_case) ->
      same ~options c.W.qlabel Registry.qan2 c.W.qn
        (List.map (fun g -> [ g ]) c.W.qgadgets))
    (W.qaoa_suite ())

let () =
  Alcotest.run "pipeline"
    [
      ( "golden",
        [
          Alcotest.test_case "phoenix uccsd" `Slow test_phoenix_golden_uccsd;
          Alcotest.test_case "phoenix qaoa" `Quick test_phoenix_golden_qaoa;
          Alcotest.test_case "phoenix at scale" `Slow test_phoenix_golden_at_scale;
          Alcotest.test_case "baselines" `Slow test_baseline_golden;
        ] );
      ( "trace",
        [
          Alcotest.test_case "telescopes (all pipelines)" `Slow
            test_trace_telescopes_all_pipelines;
          prop_trace_telescopes;
          Alcotest.test_case "snapshots match the circuits" `Quick
            test_trace_snapshots_match_circuits;
          Alcotest.test_case "group and simplify allocation flat in the register"
            `Slow test_group_work_flat_in_register;
          Alcotest.test_case "order allocation linear in gadgets" `Slow
            test_order_allocation_linear;
          Alcotest.test_case "route allocation per routed gate" `Slow
            test_route_allocation_per_gate;
          Alcotest.test_case "lower allocation per output gate" `Slow
            test_lower_allocation_per_gate;
          Alcotest.test_case "simplify allocation on every domain" `Quick
            test_simplify_allocation_all_domains;
          Alcotest.test_case "simplify allocation per group" `Slow
            test_simplify_allocation_per_group;
          Alcotest.test_case "pass allocation independent of the minor heap"
            `Slow test_alloc_independent_of_minor_heap;
          Alcotest.test_case "verify allocation per group flat in the register"
            `Slow test_verify_allocation_per_group;
          Alcotest.test_case "cache miss allocation within synthesis" `Slow
            test_cache_miss_allocation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "catalog" `Quick test_catalog_covers_all_pipelines;
          Alcotest.test_case "block-agnostic entries" `Quick
            test_block_agnostic_entries;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "clean on real pipelines" `Quick
            test_hooks_clean_on_real_pipelines;
        ] );
      ( "job",
        [
          Alcotest.test_case "workload specs" `Quick test_workload_specs;
          Alcotest.test_case "topology register sizes" `Quick
            test_job_topology_sizes;
          Alcotest.test_case "request options" `Quick test_job_options;
          Alcotest.test_case "rejections" `Quick test_job_rejections;
          Alcotest.test_case "program = Registry.compile (all pipelines)" `Slow
            test_job_program_differential;
        ] );
    ]
