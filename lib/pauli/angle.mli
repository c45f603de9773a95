(** Symbolic rotation angles for parametric compilation.

    Every rotation angle in the compiler is a [float].  A {e slot} is a
    float whose bit pattern is a tagged quiet NaN carrying the index of a
    symbolic angle expression in a process-wide arena; a {e const} is any
    other float.  Because slots are ordinary floats at the type level,
    the whole pipeline — tableaux, gates, circuits, routing, the
    marshalled cache payloads — carries them without any structural
    change: only the handful of passes that do {e arithmetic} on angles
    must (and do) special-case them.

    {b Invariant.}  No code may rely on float arithmetic preserving a
    slot's NaN payload: [+.], [Float.rem] etc. are free to return any
    NaN.  Every angle-arithmetic site tests {!is_slot} first and takes
    the symbolic path ({!add}, {!neg}, {!merge_norm}, {!normalize}).
    The one guaranteed-exact bit-level operation, IEEE negation, is
    implemented here by flipping the sign bit explicitly.

    {b Bit-identical bind.}  Expressions record the exact float
    operations (and operand order) the concrete pipeline would have
    performed, so evaluating a slot under a parameter vector reproduces
    the concrete compile's angle bit-for-bit — for {e generic} angle
    values.  Degenerate values (angles that are exactly zero, or sums
    that cancel to zero modulo 4π) can change circuit {e structure} in
    the concrete pipeline (zero rotations are dropped), which no
    angle-only patching can reproduce; parametric compilation assumes
    generic parameters and documents that assumption.

    {b Concurrency.}  The arena is guarded by a mutex: slots may be
    created from the parallel synthesis domain pool and evaluated from
    any domain. *)

type view = Const of float | Slot of { id : int; negated : bool }

val view : float -> view

val is_slot : float -> bool
(** [true] exactly for tagged slot NaNs; plain [Float.nan] is a const. *)

val slot_id : float -> int
(** Arena index of a slot ([Invalid_argument] on consts). *)

val with_id : negated:bool -> int -> float
(** Re-tag an existing arena expression id as a slot float.  Used by the
    cache to move slots between local (first-use rank) and absolute id
    coordinates; it does not allocate. *)

val param : index:int -> scale:float -> float
(** A fresh slot evaluating to [theta.(index) *. scale] — the exact
    expression the concrete ansatz pipeline computes. *)

val neg : float -> float
(** Concrete [-.x] on consts; flips the (exact) sign bit on slots. *)

val add : float -> float -> float
(** Concrete [a +. b] when both are consts; otherwise a slot recording
    the sum with [a]'s value as the left operand. *)

val normalize_const : float -> float
(** Canonical angle range reduction into (−2π, 2π], bit-for-bit the
    peephole's [normalize_angle] (which delegates here). *)

val normalize : float -> float
(** [normalize_const] on consts; on slots, a fresh slot recording the
    deferred normalization. *)

val merge_norm : float -> float -> float
(** The peephole rotation-merge step: [normalize_const (a +. b)] when
    both are consts, the equivalent symbolic expression otherwise. *)

exception Unbound_parameter of int
(** Raised by {!eval} when an expression references a parameter index
    outside the supplied vector. *)

val eval : float array -> float -> float
(** [eval theta a] is [a] itself for consts; for slots it replays the
    recorded expression under [theta], reproducing the concrete
    pipeline's float operations in order.  Raises {!Unbound_parameter}
    for out-of-range parameter references and [Invalid_argument] for a
    slot id that is not in the arena (e.g. a slot unmarshalled from an
    alien process without remapping). *)

val evaluator : float array -> float -> float
(** [evaluator theta] snapshots the arena once (one mutex acquisition)
    and returns a function behaving exactly like [eval theta].  Use it
    when evaluating many slots against one parameter vector — a template
    bind — so the per-site cost stays lock-free. *)

val evaluators : float array array -> (float -> float) array
(** One {!evaluator} per parameter vector, all sharing a single arena
    snapshot (one mutex acquisition for the whole batch).  The backbone
    of gradient-style multi-point binds: evaluating a slot through
    [(evaluators [| t |]).(0)] is bit-identical to [evaluator t]. *)

val max_param_index : float -> int
(** Largest parameter index the expression references, [-1] for consts.
    Raises [Invalid_argument] on unknown slot ids. *)

val known : float -> bool
(** Whether a slot's id is live in this process's arena (consts are
    always known). *)

val describe : float -> string
(** Human-readable expression, e.g. ["θ[3]*0.25"] or
    ["norm(θ[0]*0.5 + θ[1]*0.5)"]; plain ["%g"] for consts. *)

val to_string : float -> string
(** Short display form for gate printers: the const as ["%g"], or
    ["slot#id"] / ["-slot#id"]. *)

val arena_size : unit -> int
(** Number of live arena expressions (monotonic; for tests/metrics). *)

(** {1 Structural linearization}

    Every arena expression is affine in the parameter vector, so each
    angle has a canonical linear form [Σ coeffs·θ + const] computed
    {e structurally} — without sampling any binding.  [Norm] nodes are
    dropped: range reduction subtracts a multiple of 4π, and
    [exp(-i(x - 4πk)/2 σ) = exp(-ix/2 σ)] exactly for every Pauli [σ],
    so as a rotation generator [norm(x) ≡ x] for all bindings.  This is
    the angle-equality backbone of the equivalence checker
    ([Phoenix_verify.Checker]): [θ/2 + θ/2] and [θ] linearize
    identically. *)

type linear = { coeffs : (int * float) list; const : float }
(** Canonical affine form: [coeffs] maps parameter index to coefficient,
    sorted by index with exact-zero entries dropped; [const] is the
    parameter-free part.  A const angle has empty [coeffs]. *)

val linear_zero : linear
(** The zero form (empty coefficients, const [0.0]). *)

val linearize : float -> linear
(** Canonical linear form of an angle.  Consts map to a pure-const form;
    slots are resolved against one arena snapshot (a single mutex
    acquisition).  Raises [Invalid_argument] on unknown slot ids. *)

val linear_neg : linear -> linear
val linear_add : linear -> linear -> linear

val linear_equal : ?tol:float -> ?modulo:float -> linear -> linear -> bool
(** Structural equality of linear forms: coefficients compared pairwise
    within relative tolerance [tol] (default [1e-9], missing entries
    read as [0.0]); consts compared within [tol], or — with [?modulo]
    (typically 2π: rotations equal up to global phase) — modulo the
    given period.  NaN anywhere compares unequal. *)

val linear_is_zero : ?tol:float -> ?modulo:float -> linear -> bool
(** [linear_equal l linear_zero] — true when the angle vanishes for
    every binding (modulo the optional period). *)

val linear_to_string : linear -> string
(** Display form, e.g. ["0.5*θ[0] + 1.5708"]. *)
