(** Hardware coupling graphs.

    A topology is an undirected connectivity graph over physical qubits.
    {!make} builds its tables once — all-pairs BFS distances in one
    row-stride array, an n·n adjacency table, per-qubit neighbour
    arrays and the connectivity flag — and every query reads them. *)

type t

val make : int -> (int * int) list -> t
(** [make n edges].  Self-loops and out-of-range endpoints raise
    [Invalid_argument]. *)

val num_qubits : t -> int
val edges : t -> (int * int) list
(** Normalized (small endpoint first), sorted, unique. *)

val neighbors : t -> int -> int list
(** Ascending. *)

val neighbor_array : t -> int -> int array
(** {!neighbors} as a shared array — do not mutate. *)

val are_adjacent : t -> int -> int -> bool

val distance : t -> int -> int -> int
(** Shortest-path length.  Unreachable pairs return the qubit count, a
    finite sentinel larger than any true distance. *)

val distances : t -> int array
(** The shared row-stride distance table: [distance t a b] is
    [(distances t).(a * num_qubits t + b)].  Do not mutate. *)

val is_connected : t -> bool

val all_to_all : int -> t
val line : int -> t
val ring : int -> t
val grid : rows:int -> cols:int -> t

val heavy_hex : widths:int list -> t
(** Heavy-hex lattice: horizontal rows of qubits with the given widths,
    consecutive rows joined by bridge qubits placed every fourth column
    (columns 0, 4, 8, … below even-indexed rows and 2, 6, 10, … below odd
    ones, clipped to both rows).  This is the IBM heavy-hex pattern. *)

val ibm_manhattan : unit -> t
(** The 64-qubit Manhattan-class heavy-hex used in the paper's
    hardware-aware evaluation: rows of 10/11/11/11/10 qubits plus 11
    bridges. *)

val pp : Format.formatter -> t -> unit
