module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Diag = Phoenix_verify.Diag
module Clock = Phoenix_util.Clock
module Budget = Phoenix_util.Budget
module Parallel = Phoenix_util.Parallel
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
  before : metrics;
  after : metrics;
}

type trace = trace_entry list

let entry_delta e = metrics_delta ~before:e.before ~after:e.after

(* Minor words plus major − promoted words, each word counted once, on
   this domain and on the helper domains of its parallel maps.  Both
   reads are exact at any moment ([Gc.quick_stat]'s major count moves
   only when a collection flushes it on OCaml 5). *)
let measure f =
  let (x, seconds), words =
    Parallel.measure_words (fun () ->
        let t0 = Clock.monotonic_s () in
        let x = f () in
        (x, Clock.monotonic_s () -. t0))
  in
  (x, seconds, words)

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
  (* Each pass's [after] snapshot is the next pass's [before]: the
     circuit between two passes is the same value, so it is counted
     once. *)
  let final, _, rev_trace =
    List.fold_left
      (fun (ctx, before, acc) pass ->
        let ctx', seconds, alloc_words = measure (fun () -> exec pass ctx) in
        let after = metrics_of ctx'.circuit in
        List.iter
          (fun h -> h ~pass ~before:ctx ~after:ctx' ~seconds)
          hooks;
        ( ctx',
          after,
          { pass = pass.name; seconds; alloc_words; before; after } :: acc ))
      (ctx, metrics_of ctx.circuit, []) passes
  in
  final, List.rev rev_trace

(* --- machine-readable trace --- *)

let metrics_json m =
  Json.Obj
    [
      ("gates", Json.Num (Float.of_int m.gates));
      ("one_q", Json.Num (Float.of_int m.one_q));
      ("two_q", Json.Num (Float.of_int m.two_q));
      ("depth_2q", Json.Num (Float.of_int m.depth_2q));
    ]

let entry_json e =
  Json.Obj
    [
      ("pass", Json.Str e.pass);
      ("seconds", Json.Num e.seconds);
      ("alloc_words", Json.Num e.alloc_words);
      ("before", metrics_json e.before);
      ("after", metrics_json e.after);
      ("delta", metrics_json (entry_delta e));
    ]

let degradation_json ((e : Resilience.event), count) =
  Json.Obj
    [
      ("subject", Json.Str e.subject);
      ("from", Json.Str e.from_rung);
      ("to", Json.Str e.to_rung);
      ("count", Json.Num (Float.of_int count));
    ]

let trace_json ?(compiler = "") ?(workload = "") ?cache ?(degradations = [])
    trace =
  let unless_empty key v = if v = "" then [] else [ (key, Json.Str v) ] in
  Json.Obj
    ([ ("schema", Json.Str "phoenix-trace-v1") ]
    @ unless_empty "compiler" compiler
    @ unless_empty "workload" workload
    @ (match cache with
      | Some s -> [ ("cache", Phoenix_cache.Cache.stats_json s) ]
      | None -> [])
    @ (match Resilience.aggregate degradations with
      | [] -> []
      | agg -> [ ("degradations", Json.Arr (List.map degradation_json agg)) ])
    @ [
        ( "total_seconds",
          Json.Num (List.fold_left (fun acc e -> acc +. e.seconds) 0.0 trace) );
        ( "final",
          metrics_json
            (match List.rev trace with e :: _ -> e.after | [] -> metrics_zero)
        );
        ("passes", Json.Arr (List.map entry_json trace));
      ])
