(* Symbolic translation validation: the proof-carrying certificate
   checker over the Pauli IR.

   Headline properties under test: (1) every pass boundary of every
   registered pipeline — logical, SU(4), routed, exact, template —
   certifies [Proved] under the independent checker; (2) the abstract
   domain's primitives (quarter-turn splitting, Clifford-rotation frame
   folding, frame composition) agree with the gate-level frame they
   canonicalize against; (3) peephole + phase folding preserve the phase
   polynomial on random programs, with the certifier as oracle; and
   (4) corrupting any single certificate field — the layout, the
   physical width, the claim itself — or any single program term is
   rejected: no mutation survives the checker. *)

module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Angle = Phoenix_pauli.Angle
module Frame = Phoenix_verify.Frame
module Domain = Phoenix_verify.Domain
module Checker = Phoenix_verify.Checker
module Certify = Phoenix_tv.Certify
module Pass = Phoenix.Pass
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Workloads = Phoenix_experiments.Workloads
module Spin = Phoenix_ham.Spin_models
module Hamiltonian = Phoenix_ham.Hamiltonian
module Peephole = Phoenix_circuit.Peephole
module Phase_folding = Phoenix_circuit.Phase_folding
module Cache = Phoenix_cache.Cache
module Diag = Phoenix_verify.Diag

let pi = 4.0 *. atan 1.0
let half_pi = pi /. 2.0

(* Tests never touch the user's synthesis cache. *)
let base_options = { Compiler.default_options with Compiler.cache = Cache.Off }

let proved = function Checker.Proved -> true | _ -> false
let refuted = function Checker.Refuted _ -> true | _ -> false

let check_verdict what want got =
  Alcotest.(check string)
    what
    (Checker.verdict_label want)
    (Checker.verdict_label got)

(* --- quarter-turn splitting ---------------------------------------------- *)

let test_split_quarter_turns () =
  List.iter
    (fun c ->
      let k, r = Domain.split_quarter_turns (Angle.linearize c) in
      Alcotest.(check bool)
        (Printf.sprintf "k in 0..3 for %g" c)
        true
        (k >= 0 && k <= 3);
      Alcotest.(check bool)
        (Printf.sprintf "remainder in [-pi/4, pi/4] for %g" c)
        true
        (Float.abs r.Angle.const <= (pi /. 4.0) +. 1e-12);
      (* Reconstruction modulo 2π: k·π/2 + r ≡ c. *)
      let back =
        Float.rem ((float k *. half_pi) +. r.Angle.const -. c) (2.0 *. pi)
      in
      let back = Float.abs back in
      let back = Float.min back (Float.abs (back -. (2.0 *. pi))) in
      Alcotest.(check bool)
        (Printf.sprintf "k·π/2 + r ≡ %g (mod 2π)" c)
        true (back < 1e-9))
    [
      0.0; 0.3; -0.3; half_pi; -.half_pi; pi; -.pi; 1.5 *. pi; 2.0 *. pi;
      half_pi +. 0.3; pi -. 0.1; -3.0 *. half_pi; 7.0 *. half_pi; 2.0;
    ];
  (* Slot coefficients pass through untouched. *)
  let sym =
    Angle.linear_add
      (Angle.linearize (Angle.param ~index:3 ~scale:0.5))
      (Angle.linearize (half_pi +. 0.25))
  in
  let k, r = Domain.split_quarter_turns sym in
  Alcotest.(check int) "symbolic: one quarter turn" 1 k;
  Alcotest.(check bool)
    "symbolic: coefficients untouched" true
    (r.Angle.coeffs = sym.Angle.coeffs);
  Alcotest.(check (float 1e-12)) "symbolic: const remainder" 0.25 r.Angle.const;
  (* Guard: non-finite consts are left alone. *)
  let inf = { Angle.coeffs = []; Angle.const = Float.infinity } in
  let k, r = Domain.split_quarter_turns inf in
  Alcotest.(check int) "infinite const: no split" 0 k;
  Alcotest.(check bool)
    "infinite const: unchanged" true
    (r.Angle.const = Float.infinity)

(* --- frame primitives ----------------------------------------------------- *)

(* A Clifford prefix so the equalities are checked on a non-trivial
   frame, not just the identity. *)
let clifford_prefix n =
  [
    Gate.G1 (Gate.H, 0);
    Gate.Cnot (0, 1);
    Gate.G1 (Gate.S, 1);
    Gate.Swap (0, n - 1);
    Gate.G1 (Gate.Sdg, n - 1);
    Gate.Cnot (n - 1, 0);
  ]

let frame_of n gates =
  let f = Frame.identity n in
  List.iter (Frame.apply_gate f) gates;
  f

let test_apply_pauli_rotation () =
  let n = 3 in
  List.iter
    (fun (what, gate, axis_p, k) ->
      for q = 0 to n - 1 do
        let by_gate = frame_of n (clifford_prefix n) in
        Frame.apply_gate by_gate (Gate.G1 (gate, q));
        let by_rot = frame_of n (clifford_prefix n) in
        Frame.apply_pauli_rotation by_rot (Pauli_string.single n q axis_p) k;
        Alcotest.(check bool)
          (Printf.sprintf "%s on qubit %d == %d quarter turns" what q k)
          true
          (Frame.equal by_gate by_rot)
      done)
    [
      ("S", Gate.S, Pauli.Z, 1);
      ("Z", Gate.Z, Pauli.Z, 2);
      ("Sdg", Gate.Sdg, Pauli.Z, 3);
      ("X", Gate.X, Pauli.X, 2);
      ("Y", Gate.Y, Pauli.Y, 2);
    ];
  (* k = 0 and k = 4 are no-ops; a two-qubit axis round-trips. *)
  let f = frame_of n (clifford_prefix n) in
  let g = Frame.copy f in
  Frame.apply_pauli_rotation g (Pauli_string.single n 0 Pauli.Z) 0;
  Frame.apply_pauli_rotation g (Pauli_string.single n 1 Pauli.X) 4;
  Alcotest.(check bool) "k = 0 and k = 4 are no-ops" true
    (Frame.equal f g);
  let zz = Pauli_string.set (Pauli_string.single n 0 Pauli.Z) 1 Pauli.Z in
  Frame.apply_pauli_rotation g zz 1;
  Frame.apply_pauli_rotation g zz 3;
  Alcotest.(check bool) "two-qubit quarter turn inverts" true
    (Frame.equal f g)

let test_compose () =
  let n = 3 in
  let gates = clifford_prefix n @ [ Gate.G1 (Gate.Z, 1); Gate.Cnot (1, 2) ] in
  let whole = frame_of n gates in
  for cut = 0 to List.length gates do
    let first = List.filteri (fun i _ -> i < cut) gates in
    let second = List.filteri (fun i _ -> i >= cut) gates in
    Alcotest.(check bool)
      (Printf.sprintf "compose at cut %d == whole scan" cut)
      true
      (Frame.equal
         (Frame.compose (frame_of n first) (frame_of n second))
         whole)
  done

(* A Clifford phase abstracts identically whether spelled as a gate or
   as a rotation: after canonicalization both sides are pure frame. *)
let test_canonicalize_spellings () =
  let n = 2 in
  let as_gate = Circuit.create n [ Gate.G1 (Gate.S, 0); Gate.Cnot (0, 1) ] in
  let as_rot =
    Circuit.create n [ Gate.G1 (Gate.Rz half_pi, 0); Gate.Cnot (0, 1) ]
  in
  let a = Checker.canonicalize (Domain.of_circuit as_gate) in
  let b = Checker.canonicalize (Domain.of_circuit as_rot) in
  Alcotest.(check int) "gate spelling: no residual terms" 0
    (List.length a.Domain.terms);
  Alcotest.(check int) "rotation spelling: no residual terms" 0
    (List.length b.Domain.terms);
  Alcotest.(check bool) "frames agree" true
    (Frame.equal a.Domain.frame b.Domain.frame)

(* --- sequence vs multiset relations -------------------------------------- *)

let term n q p theta =
  { Domain.axis = Pauli_string.single n q p; Domain.angle = Angle.linearize theta }

let test_relations () =
  let n = 1 in
  let a = [ term n 0 Pauli.Z 0.3; term n 0 Pauli.X 0.5 ] in
  let swapped = [ term n 0 Pauli.X 0.5; term n 0 Pauli.Z 0.3 ] in
  check_verdict "multiset accepts anticommuting reorder" Checker.Proved
    (Checker.compare_multiset a swapped);
  Alcotest.(check bool) "sequence rejects anticommuting reorder" true
    (refuted (Checker.compare_sequence a swapped));
  let n = 2 in
  let c = [ term n 0 Pauli.Z 0.3; term n 1 Pauli.X 0.5 ] in
  let c_swapped = [ term n 1 Pauli.X 0.5; term n 0 Pauli.Z 0.3 ] in
  check_verdict "sequence accepts commuting reorder" Checker.Proved
    (Checker.compare_sequence c c_swapped);
  let merged = [ term n 0 Pauli.Z 0.8 ] in
  let split = [ term n 0 Pauli.Z 0.3; term n 0 Pauli.Z 0.5 ] in
  check_verdict "sequence merges same-axis neighbours" Checker.Proved
    (Checker.compare_sequence merged split)

(* --- every pipeline certifies ---------------------------------------------- *)

let lih = lazy (List.hd (Workloads.uccsd_suite ~labels:[ "LiH_frz_JW" ] ()))

let certified_blocks ~what entry options n blocks =
  let acc = ref [] in
  ignore
    (Registry.compile_blocks ~options ~hooks:[ Certify.hook acc ] entry n
       blocks);
  let bs = Certify.boundaries acc in
  Alcotest.(check bool) (what ^ ": boundaries recorded") true (bs <> []);
  List.iter
    (fun (b : Certify.boundary) ->
      match b.Certify.verdict with
      | Checker.Proved -> ()
      | v ->
        Alcotest.failf "%s: pass %s (%s claim) %s%s" what b.Certify.pass
          b.Certify.claim
          (Checker.verdict_label v)
          (match Checker.verdict_reason v with
          | Some r -> ": " ^ r
          | None -> ""))
    bs

let test_all_pipelines_certify () =
  let case = Lazy.force lih in
  let heavy_hex = Workloads.heavy_hex () in
  let heis = Spin.heisenberg_chain 6 in
  let heis_blocks =
    List.map (fun g -> [ g ]) (Hamiltonian.trotter_gadgets heis)
  in
  List.iter
    (fun (entry : Registry.entry) ->
      let n, blocks =
        if entry.Registry.two_local_only then (6, heis_blocks)
        else (case.Workloads.n, case.Workloads.gadget_blocks)
      in
      let topology =
        if entry.Registry.two_local_only then Phoenix_topology.Topology.line 6
        else heavy_hex
      in
      if not entry.Registry.requires_topology then
        certified_blocks
          ~what:(entry.Registry.name ^ "/logical")
          entry base_options n blocks;
      certified_blocks
        ~what:(entry.Registry.name ^ "/hardware")
        entry
        { base_options with Compiler.target = Compiler.Hardware topology }
        n blocks)
    Registry.all

let test_phoenix_option_combos () =
  let case = Lazy.force lih in
  let entry =
    match Registry.find "phoenix" with
    | Some e -> e
    | None -> Alcotest.fail "phoenix pipeline not registered"
  in
  let heavy_hex = Workloads.heavy_hex () in
  List.iter
    (fun (what, options) ->
      certified_blocks ~what:("phoenix/" ^ what) entry options
        case.Workloads.n case.Workloads.gadget_blocks)
    [
      ("su4", { base_options with Compiler.isa = Compiler.Su4_isa });
      ("exact", { base_options with Compiler.exact = true });
      ( "su4+hardware",
        {
          base_options with
          Compiler.isa = Compiler.Su4_isa;
          Compiler.target = Compiler.Hardware heavy_hex;
        } );
    ]

(* --- template certification ------------------------------------------------ *)

let symbolic_blocks base_blocks =
  List.mapi
    (fun k block ->
      List.map (fun (p, base) -> (p, Angle.param ~index:k ~scale:base)) block)
    base_blocks

let param_names base_blocks =
  Array.init (List.length base_blocks) (Printf.sprintf "theta%d")

let test_template_certifies () =
  let case = Lazy.force lih in
  let base = case.Workloads.gadget_blocks in
  let acc = ref [] in
  let tmpl =
    Compiler.compile_template ~options:base_options
      ~hooks:[ Certify.hook acc ] ~certified:true ~params:(param_names base)
      case.Workloads.n (symbolic_blocks base)
  in
  let bs = Certify.boundaries acc in
  Alcotest.(check bool) "all template boundaries proved" true
    (Certify.all_proved bs && bs <> []);
  Alcotest.(check bool) "parametrize boundary present" true
    (List.exists (fun (b : Certify.boundary) -> b.Certify.pass = "parametrize") bs);
  let diags = (Phoenix.Template.report tmpl).Compiler.diagnostics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let mentions pat =
    List.exists
      (fun (d : Diag.t) ->
        d.Diag.pass = "parametrize" && contains d.Diag.message pat)
      diags
  in
  Alcotest.(check bool) "symbolic-certification diagnostic present" true
    (mentions "symbolic certification");
  Alcotest.(check bool) "deferral diagnostic absent" true
    (not (mentions "verification deferred"))

(* --- qcheck: rewrites audited by the certifier ----------------------------- *)

(* Random gadget programs, synthesized gadget-by-gadget in program order
   (the naive pipeline — no Trotter reordering), then pushed through an
   extra peephole + phase-folding round; the certifier must still prove
   the circuit implements the program.  Phase folding respells S/Z
   phases as Rz rotations and fuses them into neighbouring cells, so
   this exercises the canonicalization path, not just the raw one. *)
let qcheck_rewrites_preserve_polynomial =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:
         "peephole + phase folding preserve the phase polynomial (certifier \
          oracle)"
       ~print:(fun program ->
         String.concat "; "
           (List.map
              (fun (p, theta) ->
                Printf.sprintf "(%s, %.17g)" (Pauli_string.to_string p) theta)
              program))
       (Helpers.terms_gen 4 8)
       (fun program ->
         let entry =
           match Registry.find "naive" with
           | Some e -> e
           | None -> Alcotest.fail "naive pipeline not registered"
         in
         let report =
           Registry.compile_gadgets ~options:base_options entry 4 program
         in
         let rewritten =
           Phase_folding.fold (Peephole.optimize report.Compiler.circuit)
         in
         proved (Checker.check_program 4 program rewritten)))

(* --- fault injection: corrupted certificates are rejected ------------------ *)

(* Capture live boundaries (claim + both contexts) out of a real
   hardware compile, then corrupt one field at a time. *)
let captured =
  lazy
    (let case = Lazy.force lih in
     let routing = ref None and lower = ref None in
     let hook ~pass ~before ~after ~seconds:_ =
       let claim = pass.Pass.certify ~before ~after in
       match (claim, !routing) with
       | Pass.Routing { l2p; n_physical }, None ->
         routing := Some (l2p, n_physical, before, after)
       | _ ->
         if pass.Pass.name = "lower" && !lower = None then
           lower := Some (claim, before, after)
     in
     let options =
       {
         base_options with
         Compiler.target = Compiler.Hardware (Workloads.heavy_hex ());
       }
     in
     ignore
       (Compiler.compile_blocks ~options ~hooks:[ hook ] case.Workloads.n
          case.Workloads.gadget_blocks);
     match !routing with
     | Some r -> r
     | None -> Alcotest.fail "hardware compile exposed no routing boundary")

(* The lower boundary of a LOGICAL compile: there the pass genuinely
   rewrites (CNOT lowering + phase folding), so overclaiming [Unchanged]
   on it must be caught.  (On a hardware compile lowering already
   happened inside routing, and the boundary really is unchanged.) *)
let captured_lower =
  lazy
    (let case = Lazy.force lih in
     let lower = ref None in
     let hook ~pass ~before ~after ~seconds:_ =
       if pass.Pass.name = "lower" && !lower = None then
         lower := Some (pass.Pass.certify ~before ~after, before, after)
     in
     ignore
       (Compiler.compile_blocks ~options:base_options ~hooks:[ hook ]
          case.Workloads.n case.Workloads.gadget_blocks);
     match !lower with
     | Some l -> l
     | None -> Alcotest.fail "logical compile exposed no lower boundary")

let test_routing_mutations_rejected () =
  let l2p, n_physical, before, after = Lazy.force captured in
  let claim l2p n_physical = Pass.Routing { l2p; n_physical } in
  check_verdict "sanity: unmutated certificate proves" Checker.Proved
    (Certify.check_boundary ~claim:(claim l2p n_physical) ~before ~after);
  let mutations =
    [
      ( "swapped layout entries",
        (let m = Array.copy l2p in
         let t = m.(0) in
         m.(0) <- m.(1);
         m.(1) <- t;
         claim m n_physical) );
      ( "layout entry off the register",
        (let m = Array.copy l2p in
         m.(0) <- n_physical;
         claim m n_physical) );
      ( "non-injective layout",
        (let m = Array.copy l2p in
         m.(0) <- m.(1);
         claim m n_physical) );
      ("wrong physical width", claim l2p (n_physical + 1));
      ("claim downgraded to unchanged", Pass.Unchanged);
      ("claim downgraded to preserving", Pass.Preserving);
      ("claim downgraded to reordering", Pass.Reordering);
    ]
  in
  List.iter
    (fun (what, claim) ->
      Alcotest.(check bool)
        (what ^ " is rejected")
        true
        (refuted (Certify.check_boundary ~claim ~before ~after)))
    mutations

let test_unchanged_claim_on_changed_boundary () =
  let claim, before, after = Lazy.force captured_lower in
  check_verdict "sanity: lower boundary proves under its own claim"
    Checker.Proved
    (Certify.check_boundary ~claim ~before ~after);
  Alcotest.(check bool)
    "overclaiming unchanged on a rewriting pass is rejected" true
    (refuted
       (Certify.check_boundary ~claim:Pass.Unchanged ~before ~after))

let test_program_mutations_rejected () =
  let ham = Spin.tfim_chain 4 in
  let program = Hamiltonian.trotter_gadgets ham in
  let report = Compiler.compile_gadgets ~options:base_options 4 program in
  let circuit = report.Compiler.circuit in
  check_verdict "sanity: unmutated program proves" Checker.Proved
    (Checker.check_program 4 program circuit);
  let flip_axis (p, theta) =
    let q0 =
      match Pauli_string.get p 0 with Pauli.X -> Pauli.Y | _ -> Pauli.X
    in
    (Pauli_string.set p 0 q0, theta)
  in
  let mutate = function
    | [] -> Alcotest.fail "empty program"
    | g :: rest ->
      [
        ("dropped rotation", rest);
        ("extra rotation", g :: g :: rest);
        ( "perturbed angle",
          (fst g, snd g +. 0.3) :: rest (* 0.3: not a quarter turn *) );
        ("flipped axis", flip_axis g :: rest);
      ]
  in
  List.iter
    (fun (what, mutated) ->
      Alcotest.(check bool)
        (what ^ " is rejected")
        true
        (refuted (Checker.check_program 4 mutated circuit)))
    (mutate program)

let () =
  Alcotest.run "tv"
    [
      ( "domain",
        [
          Alcotest.test_case "split_quarter_turns" `Quick
            test_split_quarter_turns;
          Alcotest.test_case "apply_pauli_rotation == gate frames" `Quick
            test_apply_pauli_rotation;
          Alcotest.test_case "compose == concatenated scan" `Quick
            test_compose;
          Alcotest.test_case "canonicalize reconciles spellings" `Quick
            test_canonicalize_spellings;
          Alcotest.test_case "sequence vs multiset relations" `Quick
            test_relations;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "every registered pipeline certifies" `Slow
            test_all_pipelines_certify;
          Alcotest.test_case "phoenix option combos certify" `Slow
            test_phoenix_option_combos;
          Alcotest.test_case "template certifies for all bindings" `Quick
            test_template_certifies;
        ] );
      ( "property",
        [ qcheck_rewrites_preserve_polynomial ] );
      ( "fault-injection",
        [
          Alcotest.test_case "routing certificate mutations rejected" `Quick
            test_routing_mutations_rejected;
          Alcotest.test_case "unchanged overclaim rejected" `Quick
            test_unchanged_claim_on_changed_boundary;
          Alcotest.test_case "program mutations rejected" `Quick
            test_program_mutations_rejected;
        ] );
    ]
