(** Tetris-like IR group ordering (§IV-C).

    Simplified IR groups are pre-arranged by descending width, then
    assembled greedily: a look-ahead window is scanned for the block whose
    assembly cost against the last placed block is minimal.  The cost
    combines the endian-vector depth overhead (Fig. 3), a discount for
    Hermitian Clifford2Q pairs that cancel across the interface (Fig. 4a),
    and — in routing-aware mode — the interaction-graph similarity factor
    of Eq. 7 (Fig. 4b).

    Each block is summarized once per {!order} call from its gate list
    (endian sums and zero sets, exposed Clifford2Q keys, and in
    routing-aware mode the BFS rows of its head and tail interaction
    graphs), and a candidate is scored from two summaries in closed
    form: logical-mode scoring does not depend on the register width. *)

type block = { group : Group.t; circuit : Phoenix_circuit.Circuit.t }

val assembly_cost : ?routing_aware:bool -> block -> block -> float
(** [assembly_cost prev next]: the uniform cost of placing [next] right
    after [prev].  Raises [Invalid_argument] when the two circuits have
    different qubit counts. *)

val order :
  ?lookahead:int -> ?routing_aware:bool -> block list -> block list
(** Order blocks ([lookahead] defaults to 10; raises [Invalid_argument]
    below 1).  Among equal costs the earliest block in the window wins.
    The relative order of blocks only changes within the reordering
    freedom of Trotterization. *)
