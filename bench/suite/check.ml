(* Output checks.  Each failure counts as a failed op and makes the run
   incorrect:

   - every distinct compiled program certifies (every pass boundary
     [proved] by the independent symbolic checker);
   - every rep of a program yields the same circuit digest;
   - every serve response matches a serial [Handler.execute] of the same
     request;
   - sampled template binds are bit-identical to a direct compile at the
     same parameters. *)

module Compiler = Phoenix.Compiler
module Registry = Phoenix_pipeline.Registry
module Certify = Phoenix_tv.Certify
module Cache = Phoenix_cache.Cache
module Hamiltonian = Phoenix_ham.Hamiltonian
module Pauli_term = Phoenix_pauli.Pauli_term
module Json = Phoenix_serve.Json
module Protocol = Phoenix_serve.Protocol
module Handler = Phoenix_serve.Handler

let phoenix =
  match Registry.find "phoenix" with
  | Some e -> e
  | None -> failwith "phoenix pipeline not registered"

type certified = { proved : bool; cert_digest : string; check_s : float }

(* Compile once more under the certify hook, from a cold memory cache
   like every timed op.  A compile that fails is a failed check. *)
let certify ~options h =
  Cache.clear_memory ();
  let acc = ref [] in
  match Registry.compile ~options ~protect:true ~hooks:[ Certify.hook acc ] phoenix h with
  | exception _ -> { proved = false; cert_digest = ""; check_s = 0.0 }
  | r ->
    let bs = Certify.boundaries acc in
    { proved = bs <> [] && Certify.all_proved bs;
      cert_digest = Protocol.circuit_digest r.Compiler.circuit;
      check_s = Certify.total_check_seconds bs }

(* A template certifies statically, for every binding at once. *)
let certify_template ~options h =
  let acc = ref [] in
  match
    Registry.compile_template ~options ~protect:true ~hooks:[ Certify.hook acc ]
      ~certified:true phoenix h
  with
  | Ok _ ->
    let bs = Certify.boundaries acc in
    (bs <> [] && Certify.all_proved bs, Certify.total_check_seconds bs)
  | Error _ | (exception _) -> (false, 0.0)

(* The circuit digests a response carries: one for a compile, one per
   bound circuit for a template. *)
let payload_digests (payload : Json.t) =
  let circuit_digest c = Option.bind (Json.mem "digest" c) Json.str in
  match Option.bind (Json.mem "kind" payload) Json.str with
  | Some "compile" ->
    Option.to_list (Option.bind (Json.mem "circuit" payload) circuit_digest)
  | Some "template" ->
    List.filter_map circuit_digest
      (Option.value ~default:[] (Option.bind (Json.mem "binds" payload) Json.arr))
  | _ -> []

(* What the daemon must answer for a request line: the serial handler's
   status code and digests, by the same parse the daemon applies. *)
let serve_reference line =
  match Protocol.parse_request line with
  | Ok (Protocol.Compile { spec; _ }) ->
    let o = Handler.execute spec in
    Ok (Protocol.status_code o.Handler.status, payload_digests (Json.Obj o.Handler.fields))
  | Ok _ -> Error "not a compile request"
  | Error (_, msg) -> Error msg

(* The tau-scaled gadget blocks a template's parameters scale, as
   [Registry.compile_template] builds them. *)
let template_blocks ~(options : Compiler.options) h =
  match Hamiltonian.term_blocks h with
  | Some blocks ->
    List.map
      (List.map (fun (t : Pauli_term.t) ->
           (t.Pauli_term.pauli, 2.0 *. t.Pauli_term.coeff *. options.Compiler.tau)))
      blocks
  | None -> List.map (fun g -> [ g ]) (Hamiltonian.trotter_gadgets ~tau:options.Compiler.tau h)

(* A bind at [theta] against a direct compile with each block's angles
   scaled by its parameter. *)
let bind_matches ~options ~blocks ~n theta bound_digest =
  let scaled =
    List.mapi (fun k block -> List.map (fun (p, base) -> (p, theta.(k) *. base)) block) blocks
  in
  match Registry.compile_blocks ~options ~protect:true phoenix n scaled with
  | r -> String.equal (Protocol.circuit_digest r.Compiler.circuit) bound_digest
  | exception _ -> false
