(** The analysis registry.

    Circuit-level analyses are registered here by name; [phoenix
    analyze], the [--lint] compile flag, and the test harness all run
    the registry rather than hand-picked pass lists, so a newly
    registered analysis is automatically surfaced everywhere.  (The
    compiler-internal {!Determinism} audit has different inputs and is
    invoked directly.)

    To add an analysis: write a [Circuit_lint.target -> Finding.t list]
    function (simulation-free, polynomial in the gate count), append an
    entry to {!all}, and give it a fault-injection test proving the
    defect class it exists for is actually caught. *)

type analysis = {
  name : string;  (** stable kebab-case identifier *)
  description : string;  (** one line, shown by [phoenix analyze --list] *)
  run : Circuit_lint.target -> Finding.t list;
}

val all : analysis list
(** Registry order is execution and report order. *)

val names : unit -> string list

val find : string -> analysis option

val unknown : string list -> string list
(** The subset of [names] that match no registered analysis — the CLI's
    [--only]/[--skip] validation (unknown names are a usage error, exit
    2, not an empty run). *)

val run :
  ?only:string list ->
  ?skip:string list ->
  Circuit_lint.target ->
  Finding.t list
(** Run the whole registry — or the [only] subset, minus the [skip]
    set — on a target, concatenating findings in registry order.
    Raises [Invalid_argument] when either list names an unknown
    analysis (use {!unknown} to pre-validate). *)
