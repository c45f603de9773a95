(** SABRE-style SWAP routing (Li, Ding, Xie — ASPLOS 2019).

    Maps a logical circuit onto a coupling graph by greedily inserting
    SWAP gates chosen by a front-layer + lookahead distance heuristic with
    a decay factor that spreads consecutive swaps across qubits.  Any 2Q
    gate type in the circuit IR is routed (Cliff2/Rpp/Su4 included); the
    result contains explicit [Swap] gates, which the CNOT rebase of
    {!Phoenix_circuit.Lowering} expands into 3 CNOTs.

    Both routers keep their state in flat int arrays, score each
    candidate SWAP from the gates on the two logical qubits it moves, and
    are deterministic: equal inputs (seed included) give equal results. *)

type result = {
  circuit : Phoenix_circuit.Circuit.t;
      (** routed circuit over the device's physical qubits *)
  initial_layout : Layout.t;
  final_layout : Layout.t;
  num_swaps : int;
}

val route :
  ?initial:Layout.t ->
  ?lookahead:int ->
  ?decay:float ->
  ?seed:int ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** Route with a fixed initial layout (default: trivial).  [lookahead]
    (default 20) is the extended-set size; [decay] (default 0.001) the
    per-use penalty increment.  Raises [Invalid_argument] when the device
    has fewer qubits than the circuit or its coupling graph is
    disconnected. *)

val route_with_refinement :
  ?initial:Layout.t ->
  ?iterations:int ->
  ?lookahead:int ->
  ?seed:int ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** SABRE's bidirectional initial-layout refinement: starting from
    [initial] (default: interaction-aware placement), alternate
    forward/backward routing passes ([iterations] round trips, default
    1), then route forward with the better of the refined and the seed
    layout (the seed layout on a tie).  Raises [Invalid_argument] as
    {!route} does, before placing the circuit. *)

val route_commuting :
  ?initial:Layout.t ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** Routing for circuits whose gates all mutually commute (e.g. a QAOA
    cost layer, which is Z-diagonal): gate order is treated as free, so
    at every step all currently-adjacent interactions execute and SWAPs
    are chosen against the whole pending set — the strategy 2QAN
    pioneered for 2-local programs.  The caller must guarantee
    commutativity.  After more than [2 · n_physical] SWAPs without an
    executed gate, the first pending gate is stepped along a shortest
    path until a gate executes, so routing always ends.  Raises
    [Invalid_argument] when the device has fewer qubits than the circuit
    or its coupling graph is disconnected: a pending gate across two
    components could never execute. *)
