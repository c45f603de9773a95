(** Ready-made pass-boundary instrumentation for {!Phoenix.Pass.run}.

    Both hooks accumulate into caller-owned refs (newest first) so they
    compose with any pipeline without threading state through the
    context. *)

val lint :
  (string * Phoenix_analysis.Finding.t) list ref -> Phoenix.Pass.hook
(** After every pass with a non-empty circuit, run the basis-agnostic
    analyses (angle sanity, 2Q-layer consistency) and record each
    finding tagged with the pass that produced the circuit — pinpointing
    the pass that introduced a NaN angle or a layering bug, which
    final-circuit linting cannot do. *)

val translation_validate :
  Phoenix_verify.Diag.t list ref -> Phoenix.Pass.hook
(** Whole-program Pauli-propagation validation
    ({!Phoenix_verify.Checker.check_program}) at the one boundary where
    it applies to every registered pipeline: the pass that materializes
    the full circuit from an empty one (assemble / naive's synth), before
    peephole rewriting or routing.  Records an [Info] diagnostic on
    success, an [Error] on mismatch or an undecided verdict.  This gives baseline pipelines —
    which had no verification story at all — a translation-validation
    check for free. *)

val certify :
  Phoenix_tv.Certify.boundary list ref -> Phoenix.Pass.hook
(** {!Phoenix_tv.Certify.hook}: symbolic translation validation of every
    executed pass boundary against the pass's claimed certificate.
    Unlike {!translation_validate} this audits {e all} boundaries —
    including peephole and routing — and works on slotted (template)
    circuits, because the check happens in the frame × phase-polynomial
    abstract domain rather than by dense simulation. *)
