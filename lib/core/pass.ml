module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Diag = Phoenix_verify.Diag
module Clock = Phoenix_util.Clock
module Budget = Phoenix_util.Budget
module Json = Phoenix_util.Json

type isa = Cnot_isa | Su4_isa

type target = Logical | Hardware of Topology.t

type options = {
  isa : isa;
  target : target;
  tau : float;
  lookahead : int;
  exact : bool;
  peephole : bool;
  sabre_iterations : int;
  seed : int;
  verify : bool;
  domains : int;
  cache : Phoenix_cache.Cache.tier;
  budget : Budget.t;
}

let default_options =
  {
    isa = Cnot_isa;
    target = Logical;
    tau = 1.0;
    lookahead = 10;
    exact = false;
    peephole = true;
    sabre_iterations = 1;
    seed = 2025;
    verify = false;
    domains = 0;
    cache = Phoenix_cache.Cache.Mem;
    budget = Budget.none;
  }

let structural_isa = function
  | Cnot_isa -> Phoenix_verify.Structural.Cnot_basis
  | Su4_isa -> Phoenix_verify.Structural.Su4_basis

(* --- metric snapshots --- *)

type metrics = { gates : int; one_q : int; two_q : int; depth_2q : int }

let metrics_of c =
  {
    gates = Circuit.length c;
    one_q = Circuit.count_1q c;
    two_q = Circuit.count_2q c;
    depth_2q = Circuit.depth_2q c;
  }

let metrics_zero = { gates = 0; one_q = 0; two_q = 0; depth_2q = 0 }

let metrics_delta ~before ~after =
  {
    gates = after.gates - before.gates;
    one_q = after.one_q - before.one_q;
    two_q = after.two_q - before.two_q;
    depth_2q = after.depth_2q - before.depth_2q;
  }

let metrics_add a b =
  {
    gates = a.gates + b.gates;
    one_q = a.one_q + b.one_q;
    two_q = a.two_q + b.two_q;
    depth_2q = a.depth_2q + b.depth_2q;
  }

(* --- the shared compilation context --- *)

type ctx = {
  n : int;
  options : options;
  gadgets : (Phoenix_pauli.Pauli_string.t * float) list;
  term_blocks : (Phoenix_pauli.Pauli_string.t * float) list list option;
  groups : Group.t list;
  blocks : Order.block list;
  circuit : Circuit.t;
  num_swaps : int;
  logical_two_q : int;
  recovered : int;
  layout : Phoenix_router.Layout.t option;
  diagnostics : Diag.t list;
  degradations : Resilience.event list;
}

let init ?(gadgets = []) ?term_blocks ?(groups = []) options n =
  {
    n;
    options;
    gadgets;
    term_blocks;
    groups;
    blocks = [];
    circuit = Circuit.empty n;
    num_swaps = 0;
    logical_two_q = 0;
    recovered = 0;
    layout = None;
    diagnostics = [];
    degradations = [];
  }

let add_diag ctx d = { ctx with diagnostics = d :: ctx.diagnostics }

let add_degradation ctx e = { ctx with degradations = e :: ctx.degradations }

let diagf ?group ~pass severity ctx fmt =
  Printf.ksprintf
    (fun m -> add_diag ctx (Diag.make ?group ~pass severity m))
    fmt

(* --- pass certificates: the checker's claims, re-exported --- *)

type certificate = Phoenix_verify.Checker.claim =
  | Unchanged
  | Preserving
  | Reordering
  | Routing of { l2p : int array; n_physical : int }

let certificate_label = function
  | Unchanged -> "unchanged"
  | Preserving -> "preserving"
  | Reordering -> "reordering"
  | Routing _ -> "routing"

(* --- passes --- *)

type t = {
  name : string;
  description : string;
  run : ctx -> ctx;
  certify : before:ctx -> after:ctx -> certificate;
}

let default_certify ~before:_ ~after:_ = Reordering

let make ?(certify = default_certify) ~name ~description run =
  { name; description; run; certify }

type trace_entry = {
  pass : string;
  seconds : float;
  alloc_words : float;
  top_heap_words : int;
  before : metrics;
  after : metrics;
}

type trace = trace_entry list

let entry_delta e = metrics_delta ~before:e.before ~after:e.after

type hook = pass:t -> before:ctx -> after:ctx -> seconds:float -> unit

exception Interrupted of { pass : string; reason : Budget.reason }

exception Failed of { pass : string; error : string }

let run ?(protect = false) ?(hooks = []) passes ctx =
  (* The job budget rides in the options; it is installed ambiently
     around each pass so checkpoints deep in the router or the dense
     verifier see it without any signature threading.  A budget expiry
     that no degradation ladder absorbed surfaces here, tagged with the
     pass it interrupted. *)
  let budget = ctx.options.budget in
  let exec pass ctx =
    try Budget.with_ambient budget (fun () -> pass.run ctx) with
    | Budget.Interrupted reason ->
      raise (Interrupted { pass = pass.name; reason })
    | (Interrupted _ | Failed _) as e -> raise e
    | e when protect ->
      (* Fail closed with the pass named, for callers (CLI, the chaos
         soak, eventually the serve daemon) that must never leak a raw
         exception across the job boundary. *)
      raise (Failed { pass = pass.name; error = Printexc.to_string e })
  in
  let final, rev_trace =
    List.fold_left
      (fun (ctx, acc) pass ->
        let before = metrics_of ctx.circuit in
        let m0 = Gc.minor_words () in
        let g0 = Gc.quick_stat () in
        let t0 = Clock.monotonic_s () in
        let ctx' = exec pass ctx in
        let seconds = Clock.monotonic_s () -. t0 in
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        (* Words allocated by the pass: minor (via [Gc.minor_words],
           which reads the young pointer and so is exact even when no
           minor collection ran inside the pass — [quick_stat]'s
           minor counter only flushes at collection boundaries on
           OCaml 5) plus major − promoted, counting every word exactly
           once.  [top_heap_words] is the process high-water mark at
           pass exit — the peak-memory signal the streaming mode's
           bounded-footprint claim is checked against. *)
        let alloc_words =
          m1 -. m0
          +. (g1.Gc.major_words -. g1.Gc.promoted_words)
          -. (g0.Gc.major_words -. g0.Gc.promoted_words)
        in
        let after = metrics_of ctx'.circuit in
        List.iter
          (fun h -> h ~pass ~before:ctx ~after:ctx' ~seconds)
          hooks;
        ( ctx',
          {
            pass = pass.name;
            seconds;
            alloc_words;
            top_heap_words = g1.Gc.top_heap_words;
            before;
            after;
          }
          :: acc ))
      (ctx, []) passes
  in
  final, List.rev rev_trace

(* --- machine-readable trace --- *)

let metrics_json m =
  Printf.sprintf
    "{ \"gates\": %d, \"one_q\": %d, \"two_q\": %d, \"depth_2q\": %d }"
    m.gates m.one_q m.two_q m.depth_2q

let trace_to_json ?(compiler = "") ?(workload = "") ?cache
    ?(degradations = []) trace =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"schema\": \"phoenix-trace-v1\",\n";
  if compiler <> "" then p "  \"compiler\": %s,\n" (Json.escape compiler);
  if workload <> "" then p "  \"workload\": %s,\n" (Json.escape workload);
  (match cache with
  | Some s -> p "  \"cache\": %s,\n" (Phoenix_cache.Cache.stats_to_json s)
  | None -> ());
  (match Resilience.aggregate degradations with
  | [] -> ()
  | agg ->
    p "  \"degradations\": [";
    List.iteri
      (fun i (e, count) ->
        p "%s\n    { \"subject\": %s, \"from\": %s, \"to\": %s, \"count\": %d }"
          (if i = 0 then "" else ",")
          (Json.escape e.Resilience.subject)
          (Json.escape e.Resilience.from_rung)
          (Json.escape e.Resilience.to_rung)
          count)
      agg;
    p "\n  ],\n");
  p "  \"total_seconds\": %.6f,\n"
    (List.fold_left (fun acc e -> acc +. e.seconds) 0.0 trace);
  p "  \"final\": %s,\n"
    (metrics_json
       (match List.rev trace with e :: _ -> e.after | [] -> metrics_zero));
  p "  \"passes\": [";
  List.iteri
    (fun i e ->
      p
        "%s\n\
        \    { \"pass\": %s, \"seconds\": %.6f, \"alloc_words\": %.0f, \
         \"top_heap_words\": %d,\n"
        (if i = 0 then "" else ",")
        (Json.escape e.pass) e.seconds e.alloc_words e.top_heap_words;
      p "      \"before\": %s,\n" (metrics_json e.before);
      p "      \"after\": %s,\n" (metrics_json e.after);
      p "      \"delta\": %s }" (metrics_json (entry_delta e)))
    trace;
  p "\n  ]\n}\n";
  Buffer.contents buf
