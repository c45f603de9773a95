(** Bind-side API of parametric compilation.

    A template is produced once by {!Compiler.compile_template} — paying
    the full pipeline (grouping, tableau simplification, ordering,
    peephole, lowering, routing) exactly as a concrete compile would —
    and then bound to concrete parameter vectors arbitrarily often.
    {!bind} only copies the prototype gate array and patches the slotted
    gates, so a bind is microseconds where a compile is milliseconds.

    Bind/compile contract: for generic (non-degenerate) parameter
    values, [bind (compile_template ~params n blocks_sym) theta] is
    bit-identical to compiling [blocks_sym] with every slot replaced by
    its value under [theta] — see {!Phoenix_pauli.Angle} for the exact
    statement and the degenerate-angle caveat. *)

type t = Compiler.template

val num_qubits : t -> int

val params : t -> string array
(** Declared parameter names, in binding order (a fresh copy). *)

val num_parameters : t -> int

val slot_count : t -> int
(** Distinct slot expressions in the compiled circuit. *)

val slot_sites : t -> int
(** Gates carrying at least one slot (the work a {!bind} does). *)

val report : t -> Compiler.report
(** The template compile's report.  Its [circuit] is the slotted
    prototype — metrics, trace, and cache stats describe the one-time
    compile, not any bind. *)

val circuit : t -> Phoenix_circuit.Circuit.t
(** The slotted prototype as a circuit (for dumps and lint; it carries
    unbound slots and will — by design — fail angle-sanity lint). *)

val bind : t -> float array -> Phoenix_circuit.Circuit.t
(** [bind t theta] patches every slot with its value under [theta]:
    O(slot sites) angle evaluations plus one gate-array copy.  No
    re-synthesis, re-grouping, or re-routing runs.  Raises
    [Invalid_argument] when [theta]'s length differs from
    {!num_parameters}, and {!Phoenix_pauli.Angle.Unbound_parameter}
    cannot escape a certified template. *)

val bind_batch : t -> float array list -> Phoenix_circuit.Circuit.t list
(** Gradient-style multi-point bind: one circuit per parameter vector,
    all evaluated against a {e single} {!Phoenix_pauli.Angle} arena
    snapshot ({!Phoenix_pauli.Angle.evaluators}), so a k-point batch
    takes one mutex acquisition instead of k.  Element [i] is
    bit-identical to [bind t (List.nth thetas i)].  Raises
    [Invalid_argument] when any vector's length differs from
    {!num_parameters}. *)

val bind_with_trace :
  t -> float array -> Phoenix_circuit.Circuit.t * Pass.trace
(** {!bind} plus a single-entry pass trace (["bind"]) with before/after
    metric snapshots — the auditable proof that a rebind ran no pipeline
    passes.  Its seconds and words come from {!Pass.measure}, the window
    every pass is measured by. *)

val dump : t -> string
(** Human-readable listing: parameter table, slot expressions, and the
    slotted circuit. *)
