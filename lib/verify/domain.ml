module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Angle = Phoenix_pauli.Angle
module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit

type term = { axis : Pauli_string.t; angle : Angle.linear }

type t = { n : int; terms : term list; frame : Frame.t }

let pi = 4.0 *. atan 1.0
let half_pi = 2.0 *. atan 1.0

let term_to_string t =
  Printf.sprintf "(%s, %s)"
    (Pauli_string.to_string t.axis)
    (Angle.linear_to_string t.angle)

(* Quarter-turn extraction: a rotation whose constant part is a
   multiple of π/2 is (up to global phase) a Clifford, and passes
   rewrite freely between the gate spelling and the rotation spelling
   — [Phase_folding.fold] turns [S]/[Sdg]/[Z] into [Rz (±π/2)]/[Rz π]
   and fuses them into neighbouring cells, peephole merges can sum two
   rotations to a quarter-turn.  [split_quarter_turns] peels the
   largest quarter-turn multiple out of the const, leaving a remainder
   in [-π/4, π/4]; the checker's canonicalization absorbs the peeled
   turns into the Clifford frame so both spellings abstract
   identically.  Slot coefficients are untouched: a symbolic angle is
   Clifford only for measure-zero bindings and the split is exact for
   every binding ([exp(-i(kπ/2 + r)/2 σ) = exp(-ikπ/4 σ)·exp(-ir/2 σ)],
   same axis). *)
let split_quarter_turns (lin : Angle.linear) =
  let c = lin.Angle.const in
  if (not (Float.is_finite c)) || Float.abs c > 1e9 then (0, lin)
  else
    let k = Float.round (c /. half_pi) in
    if k = 0.0 then (0, lin)
    else
      ( (int_of_float k mod 4 + 4) mod 4,
        { lin with Angle.const = c -. (k *. half_pi) } )

let program_terms gadgets =
  List.filter_map
    (fun (p, theta) ->
      if Pauli_string.is_identity p then None
      else Some { axis = p; angle = Angle.linearize theta })
    gadgets

let of_terms n gadgets =
  { n; terms = program_terms gadgets; frame = Frame.identity n }

(* The rotation scanner.  Rotation signs land on the canonical linear
   form, never on the float (float negation would destroy a symbolic
   slot's NaN payload), so unbound template angles survive the pullback
   and are compared for all bindings at once.  Cliffords fold into the
   signed frame; T/T† are π/4 Z-rotations up to global phase; SU(4)
   blocks are scanned through their recorded parts. *)
let of_circuit c =
  let n = Circuit.num_qubits c in
  let frame = Frame.identity n in
  let acc = ref [] in
  let rot axis theta =
    let negated, pulled = Frame.image frame axis in
    let lin = Angle.linearize theta in
    let lin = if negated then Angle.linear_neg lin else lin in
    acc := { axis = pulled; angle = lin } :: !acc
  in
  let rec scan g =
    match g with
    | Gate.G1 (Gate.Rx theta, q) -> rot (Pauli_string.single n q Pauli.X) theta
    | Gate.G1 (Gate.Ry theta, q) -> rot (Pauli_string.single n q Pauli.Y) theta
    | Gate.G1 (Gate.Rz theta, q) -> rot (Pauli_string.single n q Pauli.Z) theta
    | Gate.G1 (Gate.T, q) -> rot (Pauli_string.single n q Pauli.Z) (pi /. 4.0)
    | Gate.G1 (Gate.Tdg, q) ->
      rot (Pauli_string.single n q Pauli.Z) (-.pi /. 4.0)
    | Gate.Rpp { p0; p1; a; b; theta } ->
      rot (Pauli_string.set (Pauli_string.single n a p0) b p1) theta
    | Gate.Su4 { parts; _ } -> List.iter scan parts
    | g -> Frame.apply_gate frame g
  in
  List.iter scan (Circuit.gates c);
  { n; terms = List.rev !acc; frame }
