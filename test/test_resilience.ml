(* The resilience layer's contract: deadlines and cancellation are
   cooperative but prompt, degradation follows the registered ladders
   and is never silent, cancellation never corrupts persistent state,
   and every chaos-injected fault either leaves the output bit-identical
   or fails closed. *)

module Budget = Phoenix_util.Budget
module Clock = Phoenix_util.Clock
module Chaos = Phoenix_util.Chaos
module Parallel = Phoenix_util.Parallel
module Resilience = Phoenix.Resilience
module Pass = Phoenix.Pass
module Compiler = Phoenix.Compiler
module Cache = Phoenix_cache.Cache
module Cache_audit = Phoenix_analysis.Cache_audit
module Resilience_lint = Phoenix_analysis.Resilience_lint
module Finding = Phoenix_analysis.Finding
module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Diag = Phoenix_verify.Diag
module Pauli_string = Phoenix_pauli.Pauli_string

(* Every disk-tier test in this binary works under a private directory. *)
let cache_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phoenix-test-resilience-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv "PHOENIX_CACHE_DIR" d;
  d

let blocks =
  List.map
    (List.map (fun (s, a) -> Pauli_string.of_string s, a))
    [
      [ "XXIIII", 0.3; "YYIIII", 0.4; "ZZIIII", 0.5 ];
      [ "IIXYII", 0.2; "IIYXII", 0.7 ];
      [ "IIIIZZ", 0.1; "IIIIXX", 0.6 ];
      [ "XIIIIX", 0.8; "YIIIIY", 0.9 ];
      [ "IZZIII", 0.15; "IXXIII", 0.25 ];
    ]

let compile_with ?(verify = true) ?(cache = Cache.Off) budget =
  let options =
    { Compiler.default_options with verify; cache; budget }
  in
  Compiler.compile_blocks ~options 6 blocks

(* The undisturbed reference compile; cache off so it never depends on
   what previous tests left behind. *)
let reference = lazy (compile_with Budget.none)

(* --- clock ------------------------------------------------------------- *)

let test_monotonic_sane () =
  let m = Clock.monotonic_s () in
  let w = Clock.wall_s () in
  (* regression: the packed-bits encoding of an epoch-scale reading must
     not overflow the OCaml int (which froze the clock at 0.0) *)
  Alcotest.(check bool) "tracks the wall clock" true (Float.abs (m -. w) < 10.0)

let test_monotonic_nondecreasing () =
  let prev = ref (Clock.monotonic_s ()) in
  for i = 1 to 1000 do
    if i mod 250 = 0 then Unix.sleepf 0.002;
    let now = Clock.monotonic_s () in
    if now < !prev then Alcotest.fail "monotonic clock went backwards";
    prev := now
  done;
  let t0 = Clock.monotonic_s () in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "advances" true (Clock.monotonic_s () > t0)

(* --- budget ------------------------------------------------------------ *)

let test_budget_none_never_fires () =
  for _ = 1 to 1000 do
    Budget.check Budget.none;
    Budget.checkpoint ()
  done;
  Alcotest.(check bool) "is_none" true (Budget.is_none Budget.none)

let test_budget_deadline_fires () =
  let b = Budget.of_timeout_s 0.0 in
  Unix.sleepf 0.01;
  Alcotest.check_raises "expired deadline"
    (Budget.Interrupted Budget.Deadline)
    (fun () -> Budget.check b);
  Alcotest.(check bool) "exhausted probe" true
    (Budget.exhausted b = Some Budget.Deadline);
  Alcotest.(check (float 1e-9)) "no time left" 0.0 (Budget.remaining_s b)

let test_budget_invalid_timeouts () =
  List.iter
    (fun s ->
      match Budget.of_timeout_s s with
      | _ -> Alcotest.fail "negative/non-finite timeout accepted"
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.nan; Float.infinity ]

let test_budget_after_checks () =
  let b = Budget.after_checks 3 in
  Budget.check b;
  Budget.check b;
  Alcotest.check_raises "fires at the third check"
    (Budget.Interrupted Budget.Deadline)
    (fun () -> Budget.check b);
  Alcotest.check_raises "and every check after it"
    (Budget.Interrupted Budget.Deadline)
    (fun () -> Budget.check b)

let test_budget_cancel () =
  let b = Budget.cancellable () in
  Budget.check b;
  Budget.cancel b;
  Alcotest.check_raises "cancelled" (Budget.Interrupted Budget.Cancelled)
    (fun () -> Budget.check b);
  Alcotest.check_raises "the shared none budget is not cancellable"
    (Invalid_argument "Budget.cancel: the shared none budget") (fun () ->
      Budget.cancel Budget.none)

let test_ambient_stack () =
  let b = Budget.after_checks 1 in
  Alcotest.(check int) "empty before" 0 (List.length (Budget.ambient_budgets ()));
  (try
     Budget.with_ambient b (fun () ->
         Alcotest.(check bool)
           "installed" true
           (List.memq b (Budget.ambient_budgets ()));
         Budget.checkpoint ();
         Alcotest.fail "ambient checkpoint did not fire")
   with Budget.Interrupted Budget.Deadline -> ());
  Alcotest.(check int) "popped on exception" 0
    (List.length (Budget.ambient_budgets ()))

(* The ambient stack is domain-local: a budget installed by one job must
   be invisible to a job on another domain (the serve daemon runs
   independent jobs concurrently), while [Parallel.map] helper domains
   explicitly inherit their caller's stack. *)
let test_ambient_domain_isolation () =
  let b = Budget.after_checks 1 in
  Budget.with_ambient b (fun () ->
      let other =
        Domain.spawn (fun () ->
            (* No budget here: the checkpoint must not fire. *)
            Budget.checkpoint ();
            List.length (Budget.ambient_budgets ()))
      in
      Alcotest.(check int) "other domain sees an empty stack" 0
        (Domain.join other);
      Alcotest.(check bool) "this domain still holds the budget" true
        (List.memq b (Budget.ambient_budgets ())))

let test_ambient_inherited_by_pool () =
  let b = Budget.after_checks 1 in
  Budget.with_ambient b (fun () ->
      (* Force real helper domains; every worker checkpoint must see the
         caller's budget and fire. *)
      match
        Parallel.map ~domains:4
          (fun _ ->
            Budget.checkpoint ();
            0)
          (List.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "pool workers did not inherit the budget"
      | exception Budget.Interrupted Budget.Deadline -> ())

(* --- parallel hardening ------------------------------------------------ *)

let test_transient_retried () =
  let attempts = Array.init 10 (fun _ -> Atomic.make 0) in
  let f i =
    let a = Atomic.fetch_and_add attempts.(i) 1 in
    if i = 3 && a < Parallel.default_retries then
      raise (Parallel.Transient "flaky")
    else i * 2
  in
  Alcotest.(check (list int))
    "retried in place"
    (List.init 10 (fun i -> i * 2))
    (Parallel.map ~domains:4 f (List.init 10 Fun.id));
  Alcotest.(check int)
    "used the retry budget"
    (Parallel.default_retries + 1)
    (Atomic.get attempts.(3))

let test_transient_exhausted () =
  let f i = if i = 5 then raise (Parallel.Transient "always") else i in
  Alcotest.check_raises "re-raised once the budget is spent"
    (Parallel.Transient "always") (fun () ->
      ignore (Parallel.map ~domains:4 f (List.init 20 Fun.id)))

let test_pool_reusable_after_failure () =
  (try ignore (Parallel.map ~domains:4 (fun _ -> failwith "boom") [ 1; 2; 3 ])
   with Failure _ -> ());
  Alcotest.(check (list int))
    "next map is clean"
    (List.init 50 succ)
    (Parallel.map ~domains:4 succ (List.init 50 Fun.id))

let test_map_cancellation () =
  let b = Budget.cancellable () in
  Budget.cancel b;
  Budget.with_ambient b (fun () ->
      Alcotest.check_raises "workers observe the ambient budget"
        (Budget.Interrupted Budget.Cancelled) (fun () ->
          ignore
            (Parallel.map ~domains:4
               (fun i ->
                 Budget.checkpoint ();
                 i)
               (List.init 100 Fun.id))))

(* --- the degradation ladder ------------------------------------------- *)

let test_registry_is_clean () =
  let findings = Resilience_lint.registry_audit () in
  Alcotest.(check bool) "no registry errors" false (Finding.has_errors findings)

let test_deadline_degrades_and_verifies () =
  let r = compile_with (Budget.after_checks 1) in
  let ref_r = Lazy.force reference in
  Alcotest.(check bool)
    "degradations recorded" true
    (r.Compiler.degradations <> []);
  Alcotest.(check bool)
    "warned about it" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.severity = Diag.Warning)
       r.Compiler.diagnostics);
  Alcotest.(check bool)
    "still verifies" false
    (Diag.has_errors r.Compiler.diagnostics);
  Alcotest.(check bool)
    "conformance lint clean" false
    (Finding.has_errors (Resilience_lint.conformance r));
  (* the naive rungs cost more gates, never fewer *)
  Alcotest.(check bool)
    "fallback is the cheaper strategy, not a better one" true
    (Circuit.length r.Compiler.circuit
    >= Circuit.length ref_r.Compiler.circuit);
  (* and the trace carries the aggregated steps *)
  let json =
    Pass.trace_to_json ~degradations:r.Compiler.degradations r.Compiler.trace
  in
  let contains s =
    let n = String.length json and m = String.length s in
    let rec go i = i + m <= n && (String.sub json i m = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "trace records the ladder steps" true
    (contains "\"degradations\"" && contains "naive-ladder")

(* The verify pass's budget fallback: when the end-to-end dense check
   of an exact compile is interrupted, the symbolic checker decides the
   phase-folded final circuit instead.  It must accept a correct
   circuit — the compile stays error-free and the dense oracle, run
   here without a budget, confirms the circuit. *)
let test_verify_fallback_accepts_folded_circuit () =
  let h = Phoenix_ham.Fermi_hubbard.lattice ~rows:2 ~cols:2 () in
  let n = Phoenix_ham.Hamiltonian.num_qubits h in
  let program =
    match Phoenix_ham.Hamiltonian.gadget_blocks h with
    | Some blocks -> List.concat blocks
    | None -> Phoenix_ham.Hamiltonian.trotter_gadgets h
  in
  let reference = Phoenix_linalg.Unitary.program_unitary n program in
  List.iter
    (fun k ->
      let options =
        {
          Compiler.default_options with
          exact = true;
          verify = true;
          cache = Cache.Off;
          domains = 1;
          budget = Budget.after_checks k;
        }
      in
      let r = Compiler.compile ~options h in
      let what fmt = Printf.sprintf ("after_checks %d: " ^^ fmt) k in
      (match Diag.errors r.Compiler.diagnostics with
      | [] -> ()
      | d :: _ -> Alcotest.failf "%s" (what "%s" (Diag.to_string d)));
      Alcotest.(check bool)
        (what "equivalence check degraded")
        true
        (List.exists
           (fun (e : Resilience.event) ->
             e.Resilience.subject = "equivalence-check")
           r.Compiler.degradations);
      Alcotest.(check bool)
        (what "fallback certificate passed")
        true
        (List.exists
           (fun (d : Diag.t) ->
             d.Diag.pass = "verify"
             && d.Diag.severity = Diag.Warning
             && String.ends_with ~suffix:"(passed)" d.Diag.message)
           r.Compiler.diagnostics);
      let infid =
        Phoenix_linalg.Fidelity.infidelity reference
          (Phoenix_linalg.Unitary.circuit_unitary r.Compiler.circuit)
      in
      if not (infid < 1e-7) then
        Alcotest.failf "%s" (what "dense infidelity %.3e" infid))
    [ 1; 100 ]

let test_degraded_results_never_cached () =
  Cache.clear_memory ();
  Cache.reset_health ();
  let degraded = compile_with ~cache:Cache.Mem (Budget.after_checks 1) in
  Alcotest.(check bool) "run degraded" true (degraded.Compiler.degradations <> []);
  let warm = compile_with ~cache:Cache.Mem Budget.none in
  Alcotest.(check bool)
    "clean rerun matches the cold reference bit for bit" true
    (Circuit.equal warm.Compiler.circuit
       (Lazy.force reference).Compiler.circuit)

let test_unabsorbed_deadline_names_the_pass () =
  let options =
    {
      Compiler.default_options with
      target = Compiler.Hardware (Topology.line 6);
      budget = Budget.after_checks 1;
    }
  in
  match Compiler.compile_blocks ~options 6 blocks with
  | _ -> Alcotest.fail "routing has no fallback rung; expected Interrupted"
  | exception Pass.Interrupted { pass; reason = Budget.Deadline } ->
    Alcotest.(check string) "interrupted in the router" "route" pass
  | exception Pass.Interrupted { reason = Budget.Cancelled; _ } ->
    Alcotest.fail "reason must be Deadline"

let test_exit_code_documented () =
  Alcotest.(check int) "exit 5 is the deadline code" 5 Resilience.exit_deadline

(* --- chaos plans ------------------------------------------------------- *)

let test_chaos_parse_roundtrip () =
  match Chaos.parse "seed=42,timeout=0.001,worker=0.01,cache-flip=0.05" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check int) "seed" 42 p.Chaos.seed;
    (match Chaos.parse (Chaos.plan_to_string p) with
    | Error e -> Alcotest.fail e
    | Ok p' -> Alcotest.(check bool) "round-trips" true (p = p'))

let test_chaos_parse_rejects () =
  List.iter
    (fun s ->
      match Chaos.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed plan %S" s)
      | Error _ -> ())
    [ ""; "bogus"; "seed=x"; "timeout=2.0"; "worker=-0.1"; "no-such-site=0.5" ]

let test_chaos_deterministic_replay () =
  let p =
    match Chaos.parse "seed=7,worker=0.3,timeout=0.1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let record () =
    Chaos.set_plan (Some p);
    let fires =
      List.init 200 (fun _ -> (Chaos.fire Chaos.Worker, Chaos.fire Chaos.Timeout))
    in
    Chaos.set_plan None;
    fires
  in
  let a = record () and b = record () in
  Alcotest.(check bool) "same seed, same firing sequence" true (a = b);
  Alcotest.(check bool) "some fired" true (List.exists fst a);
  Alcotest.(check bool) "not all fired" true (not (List.for_all fst a));
  Alcotest.(check bool) "disabled never fires" false (Chaos.fire Chaos.Worker)

let test_chaos_env_malformed_runs_clean () =
  let prev = Sys.getenv_opt "PHOENIX_CHAOS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PHOENIX_CHAOS" (Option.value ~default:"" prev);
      Chaos.set_plan None)
    (fun () ->
      Unix.putenv "PHOENIX_CHAOS" "utterly=broken";
      Chaos.install_from_env ();
      Alcotest.(check bool) "malformed plan ignored" false (Chaos.enabled ()))

(* A miniature in-process soak: under injected timeouts and worker
   faults, every compile must come back bit-identical, conformantly
   degraded, or interrupted/failed with the pass named. *)
let test_chaos_soak_invariant () =
  let p =
    match Chaos.parse "worker=0.1,timeout=0.05" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let clean = Lazy.force reference in
  Fun.protect
    ~finally:(fun () -> Chaos.set_plan None)
    (fun () ->
      for seed = 1 to 25 do
        Chaos.set_plan (Some { p with Chaos.seed = seed });
        (match compile_with (Budget.of_timeout_s 10.0) with
        | r ->
          if Diag.has_errors r.Compiler.diagnostics then
            Alcotest.fail "verification errors under chaos"
          else if r.Compiler.degradations <> [] then begin
            if Finding.has_errors (Resilience_lint.conformance r) then
              Alcotest.fail "non-conforming degradation under chaos"
          end
          else if not (Circuit.equal r.Compiler.circuit clean.Compiler.circuit)
          then Alcotest.fail "silent divergence under chaos"
        | exception Pass.Interrupted _ -> ()
        | exception Pass.Failed _ -> ());
        Chaos.set_plan None
      done)

(* --- cache resilience -------------------------------------------------- *)

let test_cache_health_ladder () =
  Cache.reset_health ();
  Alcotest.(check string) "starts full" "full"
    (Cache.health_to_string (Cache.health ()));
  Cache.Testing.trip_disk_errors (Cache.Testing.disk_error_threshold - 1);
  Alcotest.(check string) "below threshold stays full" "full"
    (Cache.health_to_string (Cache.health ()));
  Cache.Testing.trip_disk_errors 1;
  Alcotest.(check string) "threshold parks the disk tier" "mem-only"
    (Cache.health_to_string (Cache.health ()));
  Cache.reset_health ();
  Alcotest.(check string) "re-armed" "full"
    (Cache.health_to_string (Cache.health ()))

let test_exdev_fallback_roundtrip () =
  ignore (Cache.Persist.clear ~dir:cache_dir ());
  Cache.clear_memory ();
  Cache.reset_health ();
  Fun.protect
    ~finally:(fun () -> Cache.Testing.set_force_exdev false)
    (fun () ->
      Cache.Testing.set_force_exdev true;
      let r = compile_with ~cache:Cache.Disk Budget.none in
      Alcotest.(check bool)
        "copy+fsync+rename persisted entries" true
        (Cache.Persist.list_files ~dir:cache_dir () <> []);
      Alcotest.(check bool)
        "no disk errors on the fallback path" true
        (r.Compiler.cache_stats.Cache.disk_errors = 0);
      Alcotest.(check bool)
        "entries audit clean" false
        (Finding.has_errors (Cache_audit.run ~dir:cache_dir ()));
      (* and a cold process reads them back bit-identically *)
      Cache.clear_memory ();
      let warm = compile_with ~cache:Cache.Disk Budget.none in
      Alcotest.(check bool)
        "disk round-trip is bit-identical" true
        (Circuit.equal warm.Compiler.circuit r.Compiler.circuit);
      Alcotest.(check bool)
        "replayed from disk" true
        (warm.Compiler.cache_stats.Cache.disk_hits > 0))

(* --- cancel safety (property) ------------------------------------------ *)

(* Cancelling at an arbitrary checkpoint must never corrupt the cache or
   produce partial output: the compile either completes untouched
   (cancellation landed after the last checkpoint) or raises the
   structured interrupt, and a clean re-run over the same cache is
   bit-identical to the undisturbed reference. *)
let cancel_safety =
  QCheck.Test.make ~count:20 ~name:"cancel at any checkpoint is safe"
    QCheck.(int_range 1 500)
    (fun k ->
      Cache.clear_memory ();
      Cache.reset_health ();
      let interrupted =
        match
          compile_with ~cache:Cache.Disk
            (Budget.after_checks ~reason:Budget.Cancelled k)
        with
        | r ->
          (* cancellation is never absorbed by a ladder *)
          r.Compiler.degradations = []
        | exception Pass.Interrupted { reason = Budget.Cancelled; _ } -> true
        | exception _ -> false
      in
      Cache.clear_memory ();
      Cache.reset_health ();
      let rerun = compile_with ~cache:Cache.Disk Budget.none in
      interrupted
      && Circuit.equal rerun.Compiler.circuit
           (Lazy.force reference).Compiler.circuit
      && not (Finding.has_errors (Cache_audit.run ~dir:cache_dir ())))

let () =
  Alcotest.run "resilience"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic tracks wall" `Quick test_monotonic_sane;
          Alcotest.test_case "monotonic non-decreasing" `Quick
            test_monotonic_nondecreasing;
        ] );
      ( "budget",
        [
          Alcotest.test_case "none never fires" `Quick
            test_budget_none_never_fires;
          Alcotest.test_case "deadline fires" `Quick test_budget_deadline_fires;
          Alcotest.test_case "invalid timeouts rejected" `Quick
            test_budget_invalid_timeouts;
          Alcotest.test_case "after_checks test hook" `Quick
            test_budget_after_checks;
          Alcotest.test_case "cancellation" `Quick test_budget_cancel;
          Alcotest.test_case "ambient stack" `Quick test_ambient_stack;
          Alcotest.test_case "ambient stack is domain-local" `Quick
            test_ambient_domain_isolation;
          Alcotest.test_case "pool workers inherit the caller's budget"
            `Quick test_ambient_inherited_by_pool;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "transient faults retried" `Quick
            test_transient_retried;
          Alcotest.test_case "transient budget exhausts" `Quick
            test_transient_exhausted;
          Alcotest.test_case "pool reusable after failure" `Quick
            test_pool_reusable_after_failure;
          Alcotest.test_case "workers honour cancellation" `Quick
            test_map_cancellation;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "registry audits clean" `Quick
            test_registry_is_clean;
          Alcotest.test_case "deadline degrades and verifies" `Quick
            test_deadline_degrades_and_verifies;
          Alcotest.test_case "verify fallback accepts a folded circuit"
            `Quick test_verify_fallback_accepts_folded_circuit;
          Alcotest.test_case "degraded results never cached" `Quick
            test_degraded_results_never_cached;
          Alcotest.test_case "unabsorbed deadline names the pass" `Quick
            test_unabsorbed_deadline_names_the_pass;
          Alcotest.test_case "exit code documented" `Quick
            test_exit_code_documented;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan parse round-trip" `Quick
            test_chaos_parse_roundtrip;
          Alcotest.test_case "malformed plans rejected" `Quick
            test_chaos_parse_rejects;
          Alcotest.test_case "deterministic replay" `Quick
            test_chaos_deterministic_replay;
          Alcotest.test_case "malformed env runs clean" `Quick
            test_chaos_env_malformed_runs_clean;
          Alcotest.test_case "soak invariant (in-process)" `Quick
            test_chaos_soak_invariant;
        ] );
      ( "cache",
        [
          Alcotest.test_case "health ladder" `Quick test_cache_health_ladder;
          Alcotest.test_case "EXDEV fallback round-trip" `Quick
            test_exdev_fallback_roundtrip;
        ] );
      ( "cancel-safety",
        [ QCheck_alcotest.to_alcotest cancel_safety ] );
    ]
