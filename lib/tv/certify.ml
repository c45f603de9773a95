module Pass = Phoenix.Pass
module Order = Phoenix.Order
module Group = Phoenix.Group
module Circuit = Phoenix_circuit.Circuit
module Domain = Phoenix_verify.Domain
module Checker = Phoenix_verify.Checker
module Clock = Phoenix_util.Clock
module Json = Phoenix_util.Json

type boundary = {
  pass : string;
  claim : string;
  verdict : Checker.verdict;
  pass_seconds : float;
  check_seconds : float;
}

(* The most-lowered representation a context holds wins: a non-empty
   circuit, else synthesized blocks, else IR groups, else the flat
   gadget program.  This is the α every pass boundary is compared
   under, so a pass that rewrites between representations (grouping,
   synthesis, assembly) is checked exactly like one that rewrites
   within a circuit. *)
let of_ctx (ctx : Pass.ctx) =
  let n = ctx.Pass.n in
  if Circuit.length ctx.Pass.circuit > 0 then Domain.of_circuit ctx.Pass.circuit
  else if ctx.Pass.blocks <> [] then
    Domain.of_circuit
      (Circuit.concat_list n
         (List.map (fun b -> b.Order.circuit) ctx.Pass.blocks))
  else if ctx.Pass.groups <> [] then
    Domain.of_terms n (List.concat_map (fun g -> g.Group.terms) ctx.Pass.groups)
  else Domain.of_terms n ctx.Pass.gadgets

let check_boundary ~claim ~before ~after =
  match (of_ctx before, of_ctx after) with
  | a, b -> Checker.check_claim ~exact:after.Pass.options.Pass.exact claim a b
  | exception (Invalid_argument m | Failure m) -> Checker.Plausible m

let schema_version = "phoenix-cert-v1"

let hook acc : Pass.hook =
 fun ~pass ~before ~after ~seconds ->
  let claim = pass.Pass.certify ~before ~after in
  let t0 = Clock.monotonic_s () in
  let verdict = check_boundary ~claim ~before ~after in
  let check_seconds = Clock.monotonic_s () -. t0 in
  acc :=
    {
      pass = pass.Pass.name;
      claim = Pass.certificate_label claim;
      verdict;
      pass_seconds = seconds;
      check_seconds;
    }
    :: !acc

let boundaries acc = List.rev !acc

type summary = { proved : int; plausible : int; refuted : int }

let summarize bs =
  List.fold_left
    (fun s b ->
      match b.verdict with
      | Checker.Proved -> { s with proved = s.proved + 1 }
      | Checker.Plausible _ -> { s with plausible = s.plausible + 1 }
      | Checker.Refuted _ -> { s with refuted = s.refuted + 1 })
    { proved = 0; plausible = 0; refuted = 0 }
    bs

(* A pipeline is certified end-to-end only when every boundary is
   proved: the per-boundary relations compose, so one plausible link
   breaks the chain exactly like a refuted one (it is just not a
   counterexample). *)
let overall bs =
  let s = summarize bs in
  if s.refuted > 0 then "refuted"
  else if s.plausible > 0 then "plausible"
  else "proved"

let all_proved bs = overall bs = "proved"

let total_check_seconds bs =
  List.fold_left (fun acc b -> acc +. b.check_seconds) 0.0 bs

let boundary_to_string b =
  Printf.sprintf "%-12s %-11s %-9s %7.3f ms%s" b.pass b.claim
    (Checker.verdict_label b.verdict)
    (b.check_seconds *. 1e3)
    (match Checker.verdict_reason b.verdict with
    | None -> ""
    | Some r -> "  " ^ r)

let boundary_json b =
  Json.Obj
    ([
       ("pass", Json.Str b.pass);
       ("claim", Json.Str b.claim);
       ("verdict", Json.Str (Checker.verdict_label b.verdict));
     ]
    @ (match Checker.verdict_reason b.verdict with
      | Some r -> [ ("reason", Json.Str r) ]
      | None -> [])
    @ [
        ("pass_seconds", Json.Num b.pass_seconds);
        ("check_seconds", Json.Num b.check_seconds);
      ])

let to_json ?(pipeline = "") ?(workload = "") ?(template = false) bs =
  let s = summarize bs in
  let unless_empty key v = if v = "" then [] else [ (key, Json.Str v) ] in
  Json.Obj
    ([ ("schema", Json.Str schema_version) ]
    @ unless_empty "pipeline" pipeline
    @ unless_empty "workload" workload
    @ [
        ("template", Json.Bool template);
        ( "summary",
          Json.Obj
            [
              ("overall", Json.Str (overall bs));
              ("proved", Json.Num (Float.of_int s.proved));
              ("plausible", Json.Num (Float.of_int s.plausible));
              ("refuted", Json.Num (Float.of_int s.refuted));
              ("check_seconds", Json.Num (total_check_seconds bs));
            ] );
        ("boundaries", Json.Arr (List.map boundary_json bs));
      ])
