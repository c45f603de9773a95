(* Streaming compilation: the chunked driver must be a pure refactoring
   of the whole-program compiler.  A one-step stream is bit-identical to
   [compile]; a k-step stream is bit-identical to the concatenation of k
   independent compiles; dropping the retained circuit
   ([keep_circuit:false]) changes nothing but the memory profile. *)

module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Hamiltonian = Phoenix_ham.Hamiltonian

let uccsd =
  lazy
    (let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
     Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
       b.Phoenix_ham.Molecules.spec)

let qaoa =
  lazy
    (Phoenix_ham.Qaoa.maxcut_cost
       (List.assoc "Reg3-16" (Phoenix_ham.Qaoa.benchmark_suite ())))

let hubbard = lazy (Phoenix_ham.Fermi_hubbard.lattice ~rows:2 ~cols:2 ())

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "pipeline %S not registered" name

let gates_equal name a b =
  Alcotest.(check (list string))
    name
    (List.map Gate.to_string (Circuit.gates a))
    (List.map Gate.to_string (Circuit.gates b))

let check_metrics name (a : Compiler.report) (b : Compiler.report) =
  Alcotest.(check int) (name ^ " two_q") a.Compiler.two_q_count
    b.Compiler.two_q_count;
  Alcotest.(check int) (name ^ " one_q") a.Compiler.one_q_count
    b.Compiler.one_q_count;
  Alcotest.(check int) (name ^ " depth_2q") a.Compiler.depth_2q
    b.Compiler.depth_2q

(* One-step stream ≡ whole-program compile, gate for gate. *)
let test_single_chunk_identity pipeline h () =
  let e = entry pipeline in
  let whole = Registry.compile e h in
  let s = Registry.compile_stream ~steps:1 e h in
  Alcotest.(check int) "chunks" 1 s.Compiler.s_chunks;
  gates_equal "gates" whole.Compiler.circuit
    s.Compiler.s_report.Compiler.circuit;
  check_metrics "metrics" whole s.Compiler.s_report;
  Alcotest.(check (list int))
    "per-chunk 2q" [ whole.Compiler.two_q_count ] s.Compiler.s_chunk_two_q

(* k-step stream ≡ concatenation of k independent compiles.  (Not the
   whole-program compile of the concatenated gadget list: grouping may
   merge across step boundaries there, which streaming forbids.) *)
let test_multi_chunk_concat pipeline h () =
  let e = entry pipeline in
  let steps = 3 in
  let n = Hamiltonian.num_qubits h in
  let one = Registry.compile e h in
  let expected =
    Circuit.concat_list n
      (List.init steps (fun _ -> one.Compiler.circuit))
  in
  let s = Registry.compile_stream ~steps e h in
  Alcotest.(check int) "chunks" steps s.Compiler.s_chunks;
  gates_equal "gates" expected s.Compiler.s_report.Compiler.circuit;
  Alcotest.(check (list int))
    "per-chunk 2q"
    (List.init steps (fun _ -> one.Compiler.two_q_count))
    s.Compiler.s_chunk_two_q

(* keep_circuit:false must not change the reported metrics, and the emit
   callback must see exactly the retained circuit, chunk by chunk. *)
let test_discard_equals_kept () =
  let e = entry "phoenix" in
  let h = Lazy.force qaoa in
  let n = Hamiltonian.num_qubits h in
  let steps = 2 in
  let kept = Registry.compile_stream ~steps e h in
  let emitted = ref [] in
  let s =
    Registry.compile_stream ~steps ~keep_circuit:false
      ~emit:(fun c -> emitted := c :: !emitted)
      e h
  in
  Alcotest.(check bool)
    "discarded circuit is empty" true
    (Circuit.gates s.Compiler.s_report.Compiler.circuit = []);
  Alcotest.(check int)
    "two_q" kept.Compiler.s_report.Compiler.two_q_count
    s.Compiler.s_report.Compiler.two_q_count;
  Alcotest.(check int)
    "one_q" kept.Compiler.s_report.Compiler.one_q_count
    s.Compiler.s_report.Compiler.one_q_count;
  (* Without the retained circuit, depth is the per-chunk sum — an upper
     bound on the concatenated depth (chunks can overlap layers). *)
  Alcotest.(check bool)
    "depth_2q upper bound" true
    (s.Compiler.s_report.Compiler.depth_2q
    >= kept.Compiler.s_report.Compiler.depth_2q);
  Alcotest.(check int)
    "gadgets" kept.Compiler.s_gadgets s.Compiler.s_gadgets;
  gates_equal "emitted chunks concat to the kept circuit"
    kept.Compiler.s_report.Compiler.circuit
    (Circuit.concat_list n (List.rev !emitted))

(* The streaming memory contract: with [keep_circuit:false] no chunk
   circuit stays reachable once it has been emitted, so the live heap
   after each chunk grows by bookkeeping only (per-chunk trace and report
   entries), not by a circuit.  Sampled inside [emit] after a full major
   collection; the current chunk is live at every sample, so it cancels
   out of the growth. *)
let test_stream_memory_flat () =
  let steps = 16 in
  let options =
    {
      Compiler.default_options with
      Compiler.domains = 1;
      cache = Phoenix_cache.Cache.Off;
    }
  in
  let chunk_words = ref 0 in
  let live_rev = ref [] in
  let emit c =
    chunk_words := Obj.reachable_words (Obj.repr c);
    Gc.full_major ();
    live_rev := (Gc.stat ()).Gc.live_words :: !live_rev
  in
  let s =
    Registry.compile_stream ~options ~steps ~keep_circuit:false ~emit
      (entry "phoenix")
      (Phoenix_ham.Spin_models.heisenberg_chain 100)
  in
  Alcotest.(check int) "chunks" steps s.Compiler.s_chunks;
  match (List.rev !live_rev, !live_rev) with
  | first :: _, last :: _ ->
    let growth = (last - first) / (steps - 1) in
    if growth >= !chunk_words / 4 then
      Alcotest.failf
        "live heap grows %d words per chunk (%d -> %d over %d chunks); one \
         chunk circuit is %d words"
        growth first last steps !chunk_words
  | _ -> Alcotest.fail "emit never ran"

let test_rejects_hardware () =
  let topo = Phoenix_topology.Topology.line 4 in
  let options =
    { Compiler.default_options with Compiler.target = Compiler.Hardware topo }
  in
  let chunk =
    Compiler.chunk_of_gadgets [ (Helpers.Pauli_string.of_string "XXII", 0.3) ]
  in
  Alcotest.(check bool)
    "hardware target rejected" true
    (try
       ignore
         (Compiler.compile_stream ~options
            ~pipeline:(fun o -> Compiler.passes o)
            4 (Seq.return chunk));
       false
     with Invalid_argument _ -> true)

let test_rejects_bad_steps () =
  Alcotest.(check bool)
    "steps = 0 rejected" true
    (try
       ignore (Registry.compile_stream ~steps:0 (entry "phoenix") (Lazy.force qaoa));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "stream"
    [
      ( "single-chunk identity",
        [
          Alcotest.test_case "phoenix uccsd LiH" `Quick
            (test_single_chunk_identity "phoenix" (Lazy.force uccsd));
          Alcotest.test_case "phoenix qaoa Reg3-16" `Quick
            (test_single_chunk_identity "phoenix" (Lazy.force qaoa));
          Alcotest.test_case "phoenix fermi-hubbard 2x2" `Quick
            (test_single_chunk_identity "phoenix" (Lazy.force hubbard));
          Alcotest.test_case "tket qaoa Reg3-16" `Quick
            (test_single_chunk_identity "tket" (Lazy.force qaoa));
          Alcotest.test_case "naive fermi-hubbard 2x2" `Quick
            (test_single_chunk_identity "naive" (Lazy.force hubbard));
        ] );
      ( "multi-chunk concatenation",
        [
          Alcotest.test_case "phoenix qaoa Reg3-16" `Quick
            (test_multi_chunk_concat "phoenix" (Lazy.force qaoa));
          Alcotest.test_case "phoenix fermi-hubbard 2x2" `Quick
            (test_multi_chunk_concat "phoenix" (Lazy.force hubbard));
          Alcotest.test_case "tetris qaoa Reg3-16" `Quick
            (test_multi_chunk_concat "tetris" (Lazy.force qaoa));
        ] );
      ( "contracts",
        [
          Alcotest.test_case "discard ≡ kept" `Quick test_discard_equals_kept;
          Alcotest.test_case "discarded chunks are not retained" `Quick
            test_stream_memory_flat;
          Alcotest.test_case "hardware rejected" `Quick test_rejects_hardware;
          Alcotest.test_case "steps ≥ 1" `Quick test_rejects_bad_steps;
        ] );
    ]
