(** Shared passes: the transformations common to PHOENIX and the
    baseline pipelines.  Baseline-specific passes live with their
    compilers (see {!Phoenix_baselines}); PHOENIX-specific ones in
    {!Compiler}. *)

val maybe_peephole :
  Pass.options -> Phoenix_circuit.Circuit.t -> Phoenix_circuit.Circuit.t
(** The O3-style cleanup, gated on [options.peephole]. *)

val cnot_lowering : Pass.options -> Phoenix_circuit.Lowering.stage list
(** The CNOT-ISA back end's {!Phoenix_circuit.Lowering} stages: peephole,
    rebase, phase folding, peephole — or the rebase alone without
    [options.peephole]. *)

val logical_isa_count : Pass.options -> Phoenix_circuit.Circuit.t -> int
(** 2Q count of a logical circuit under the target ISA (CNOTs, or fused
    SU(4) blocks). *)

(** {1 Certificate helpers}

    Shared [?certify] callbacks for {!Pass.make} (see
    {!Pass.certificate}); also used by the baseline pipelines. *)

val certify_unchanged : before:Pass.ctx -> after:Pass.ctx -> Pass.certificate
val certify_preserving : before:Pass.ctx -> after:Pass.ctx -> Pass.certificate

val certify_routing : before:Pass.ctx -> after:Pass.ctx -> Pass.certificate
(** Claims {!Pass.Routing} with the layout the pass installed in
    [after.layout]; degrades to {!Pass.Reordering} (which the checker
    then refutes on the register mismatch) when no layout was
    recorded. *)

val group : Pass.t
(** Partition [ctx.gadgets] (or adopt [ctx.term_blocks]) into IR groups.
    Honors [options.exact] for flat gadget programs. *)

val assemble : Pass.t
(** [ctx.blocks] concatenated in their current order becomes
    [ctx.circuit]. *)

val peephole : Pass.t
(** {!maybe_peephole} applied to [ctx.circuit]. *)

val rebase : Pass.t
(** Rebase a logical circuit to the target ISA and record
    [logical_two_q].  The identity on circuits already in CNOT basis
    under [Cnot_isa]. *)

val route_sabre : Pass.t
(** Generic SABRE routing for hardware targets (the baseline routing
    path): records the pre-routing ISA count as [logical_two_q], routes
    with layout refinement, and stores layout and swap count.  The
    identity on logical targets. *)

val lower_routed : Pass.t
(** Post-routing ISA lowering: SWAP expansion + CNOT rebase + peephole,
    or SU(4) fusion. *)

val verify_structural : Pass.t
(** Structural validation of [ctx.circuit] against the options' ISA and
    topology, recording violations (or a pass-confirming [Info]) as
    diagnostics.  Include in a pipeline only when [options.verify]. *)
