module Pass = Phoenix.Pass
module Circuit = Phoenix_circuit.Circuit
module Circuit_lint = Phoenix_analysis.Circuit_lint
module Analyses = Phoenix_analysis.Registry
module Diag = Phoenix_verify.Diag
module Checker = Phoenix_verify.Checker

(* Mid-pipeline circuits are not yet in the target ISA (abstract Pauli
   rotations, un-expanded SWAPs), so per-boundary linting runs only the
   basis-agnostic analyses; ISA/coupling conformance and metrics
   certification belong to the final circuit and stay with [--lint]. *)
let boundary_analyses = [ "angle-sanity"; "layer-consistency" ]

let lint acc : Pass.hook =
 fun ~pass ~before:_ ~after ~seconds:_ ->
  if Circuit.length after.Pass.circuit > 0 then begin
    let target = Circuit_lint.target after.Pass.circuit in
    let findings = Analyses.run ~only:boundary_analyses target in
    List.iter (fun f -> acc := (pass.Pass.name, f) :: !acc) findings
  end

(* The one boundary every pipeline shares where the circuit can be
   checked against the whole program alone: the pass that materializes
   the full circuit from an empty one (assemble, or naive's synth).
   Later passes rewrite rotations (peephole folding) or permute qubits
   (routing); the certify hook audits those boundaries against each
   pass's own claim. *)
let applicable ~(before : Pass.ctx) ~(after : Pass.ctx) =
  Circuit.length before.Pass.circuit = 0
  && Circuit.length after.Pass.circuit > 0
  && after.Pass.num_swaps = 0
  && after.Pass.gadgets <> []

let translation_validate acc : Pass.hook =
 fun ~pass ~before ~after ~seconds:_ ->
  if applicable ~before ~after then begin
    let result =
      Checker.to_result
        (Checker.check_program ~exact:after.Pass.options.Pass.exact
           after.Pass.n after.Pass.gadgets after.Pass.circuit)
    in
    let d =
      match result with
      | Ok () ->
        Diag.make ~pass:pass.Pass.name Diag.Info
          (Printf.sprintf
             "hook: %d-gadget program propagation-validated at the %s \
              boundary"
             (List.length after.Pass.gadgets) pass.Pass.name)
      | Error msg ->
        Diag.make ~pass:pass.Pass.name Diag.Error
          (Printf.sprintf "hook: propagation check failed: %s" msg)
    in
    acc := d :: !acc
  end

(* Symbolic translation validation lives in [Phoenix_tv]; re-exported
   here so pipeline consumers find all three boundary hooks (lint,
   propagation validation, certification) in one place. *)
let certify = Phoenix_tv.Certify.hook
