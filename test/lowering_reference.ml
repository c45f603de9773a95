(* Reference lowering: the list-based peephole optimizer, phase folding
   and CNOT rebase that [Phoenix_circuit.Lowering] replaced, kept
   verbatim below the module aliases (phase folding's [Z] now folds as
   π).  They rebuild gate lists, history lists and [Printf] parity keys
   at every stage; the buffer engine must reproduce them gate for gate
   (see the differential properties in test_lowering.ml). *)

module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit

module Peephole = struct
  module Pauli = Phoenix_pauli.Pauli
  module Clifford2q = Phoenix_pauli.Clifford2q
  module Angle = Phoenix_pauli.Angle

  let two_pi = 4.0 *. Float.atan 1.0 *. 2.0
  let eps = 1e-10

  (* Range reduction lives in [Angle.normalize_const] (bit-identical to the
     historical local definition); symbolic slots pass through unchanged. *)
  let normalize_angle t = if Angle.is_slot t then t else Angle.normalize_const t

  (* A slot is never a zero rotation: its value is unknown until bind, and
     dropping it would change circuit structure per parameter value. *)
  let is_zero_angle t =
    (not (Angle.is_slot t)) && Float.abs (normalize_angle t) < eps

  (* Axis decomposition of 1Q gates that are Pauli rotations up to global
     phase: S = e^{iπ/4}·Rz(π/2), Z = i·Rz(π), X = i·Rx(π), … *)
  let as_rotation : Gate.one_q -> (Pauli.t * float) option = function
    | Gate.Rz t -> Some (Pauli.Z, t)
    | Gate.Rx t -> Some (Pauli.X, t)
    | Gate.Ry t -> Some (Pauli.Y, t)
    | Gate.S -> Some (Pauli.Z, two_pi /. 4.0)
    | Gate.Sdg -> Some (Pauli.Z, -.two_pi /. 4.0)
    | Gate.Z -> Some (Pauli.Z, two_pi /. 2.0)
    | Gate.T -> Some (Pauli.Z, two_pi /. 8.0)
    | Gate.Tdg -> Some (Pauli.Z, -.two_pi /. 8.0)
    | Gate.X -> Some (Pauli.X, two_pi /. 2.0)
    | Gate.Y -> Some (Pauli.Y, two_pi /. 2.0)
    | Gate.H -> None

  (* The Pauli axis a gate exposes on qubit [q], used for commutation tests:
     a CNOT commutes with Z-axis gates on its control and X-axis gates on
     its target. *)
  let axis_on_qubit g q =
    match g with
    | Gate.G1 (k, q') when q' = q ->
      (match as_rotation k with Some (p, _) -> Some p | None -> None)
    | Gate.Cnot (a, b) ->
      if q = a then Some Pauli.Z else if q = b then Some Pauli.X else None
    | Gate.Cliff2 { Clifford2q.kind; a; b } ->
      let s0, s1 = Clifford2q.kind_sigmas kind in
      if q = a then Some s0 else if q = b then Some s1 else None
    | Gate.Rpp { p0; p1; a; b; _ } ->
      if q = a then Some p0 else if q = b then Some p1 else None
    | Gate.G1 _ | Gate.Swap _ | Gate.Su4 _ -> None

  let commutes_on g q axis =
    match axis_on_qubit g q with
    | Some p -> Pauli.equal p axis
    | None -> false

  type state = {
    out : Gate.t option array;
    (* hist.(q): indices of emitted gates touching q, most recent first;
       deleted entries are skipped lazily. *)
    hist : int list array;
    mutable next : int;
  }

  let emit st g =
    let i = st.next in
    st.out.(i) <- Some g;
    st.next <- i + 1;
    List.iter (fun q -> st.hist.(q) <- i :: st.hist.(q)) (Gate.qubits g)

  let live st i = st.out.(i) <> None

  let delete st i = st.out.(i) <- None

  (* Scan qubit [q]'s history (most recent first): skip deleted gates and
     gates satisfying [commute]; return the first blocking live gate. *)
  let rec scan_back st q ~commute = function
    | [] -> None
    | i :: rest ->
      if not (live st i) then scan_back st q ~commute rest
      else begin
        match st.out.(i) with
        | None -> assert false
        | Some g ->
          if commute g then scan_back st q ~commute rest else Some (i, g)
      end

  let last_live st q =
    scan_back st q ~commute:(fun _ -> false) st.hist.(q)

  let try_merge_rotation st q p theta =
    (* 1Q gates on [q] are potential merge targets, so they always stop the
       scan; other gates are skipped when they commute with the rotation. *)
    let commute g =
      match g with
      | Gate.G1 (_, q') when q' = q -> false
      | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Swap _
      | Gate.Su4 _ ->
        commutes_on g q p
    in
    match scan_back st q ~commute st.hist.(q) with
    | Some (i, Gate.G1 (k, q')) when q' = q ->
      (match as_rotation k with
      | Some (p', t') when Pauli.equal p' p ->
        let merged = Angle.merge_norm theta t' in
        delete st i;
        if not (is_zero_angle merged) then
          emit st (Gate.rotation_of_pauli p q merged);
        true
      | Some _ | None -> false)
    | Some _ | None -> false

  let try_cancel_h st q =
    match last_live st q with
    | Some (i, Gate.G1 (Gate.H, q')) when q' = q ->
      delete st i;
      true
    | Some _ | None -> false

  let try_cancel_cnot st a b =
    let target = Gate.Cnot (a, b) in
    let commute_a g = (not (Gate.equal g target)) && commutes_on g a Pauli.Z in
    let commute_b g = (not (Gate.equal g target)) && commutes_on g b Pauli.X in
    match scan_back st a ~commute:commute_a st.hist.(a) with
    | Some (i, g) when Gate.equal g target ->
      (match scan_back st b ~commute:commute_b st.hist.(b) with
      | Some (j, _) when j = i ->
        delete st i;
        true
      | Some _ | None -> false)
    | Some _ | None -> false

  let both_last_equal st a b pred =
    match last_live st a, last_live st b with
    | Some (i, g), Some (j, _) when i = j && pred g -> Some i
    | _, _ -> None

  let try_cancel_cliff2 st c =
    let pred = function
      | Gate.Cliff2 c' -> Clifford2q.equal_gate c c'
      | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _ | Gate.Su4 _ -> false
    in
    match both_last_equal st c.Clifford2q.a c.Clifford2q.b pred with
    | Some i ->
      delete st i;
      true
    | None -> false

  let try_cancel_swap st a b =
    let pred = function
      | Gate.Swap (x, y) -> (x = a && y = b) || (x = b && y = a)
      | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Su4 _ ->
        false
    in
    match both_last_equal st a b pred with
    | Some i ->
      delete st i;
      true
    | None -> false

  let try_merge_rpp st (r : Gate.t) =
    match r with
    | Gate.Rpp { p0; p1; a; b; theta } ->
      let pred = function
        | Gate.Rpp r' -> r'.p0 = p0 && r'.p1 = p1 && r'.a = a && r'.b = b
        | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Swap _ | Gate.Su4 _
          ->
          false
      in
      (match both_last_equal st a b pred with
      | Some i ->
        (match st.out.(i) with
        | Some (Gate.Rpp r') ->
          let merged = Angle.merge_norm theta r'.theta in
          delete st i;
          if not (is_zero_angle merged) then
            emit st (Gate.Rpp { p0; p1; a; b; theta = merged });
          true
        | Some _ | None -> assert false)
      | None -> false)
    | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Swap _ | Gate.Su4 _ ->
      false

  let handle st g =
    let handled =
      match g with
      | Gate.G1 (Gate.H, q) -> try_cancel_h st q
      | Gate.G1 (k, q) ->
        (match as_rotation k with
        | Some (p, t) ->
          if is_zero_angle t then true else try_merge_rotation st q p t
        | None -> false)
      | Gate.Cnot (a, b) -> try_cancel_cnot st a b
      | Gate.Cliff2 c -> try_cancel_cliff2 st c
      | Gate.Swap (a, b) -> try_cancel_swap st a b
      | Gate.Rpp { theta; _ } ->
        if is_zero_angle theta then true else try_merge_rpp st g
      | Gate.Su4 _ -> false
    in
    if not handled then emit st g

  let pass c =
    let gs = Circuit.gates c in
    let n = Circuit.num_qubits c in
    (* Each source gate emits at most one output gate (merges replace). *)
    let st =
      {
        out = Array.make (max 1 (List.length gs)) None;
        hist = Array.make n [];
        next = 0;
      }
    in
    List.iter (handle st) gs;
    let kept = Array.to_list st.out |> List.filter_map (fun g -> g) in
    Circuit.create n kept

  let optimize ?(max_passes = 20) c =
    let rec go i c =
      if i >= max_passes then c
      else begin
        let c' = pass c in
        if Circuit.length c' = Circuit.length c && Circuit.equal c' c then c
        else go (i + 1) c'
      end
    in
    go 0 c
end

module Phase_folding = struct
  (* Parity = sorted list of wire-variable indices; a per-qubit negation
     bit accounts for X gates.  Each folded phase class keeps one mutable
     output slot accumulating the angle. *)

  module Angle = Phoenix_pauli.Angle

  type item = Fixed of Gate.t | Phase of int * float ref (* qubit, angle *)

  let quarter angle_of =
    match angle_of with
    | Gate.Z -> Some (4.0 *. Float.atan 1.0) (* π *)
    | Gate.S -> Some (2.0 *. Float.atan 1.0) (* π/2 *)
    | Gate.Sdg -> Some (-2.0 *. Float.atan 1.0)
    | Gate.T -> Some (Float.atan 1.0) (* π/4 *)
    | Gate.Tdg -> Some (-.Float.atan 1.0)
    | Gate.Rz t -> Some t
    | Gate.H | Gate.X | Gate.Y | Gate.Rx _ | Gate.Ry _ -> None

  let fold circuit =
    let n = Circuit.num_qubits circuit in
    let fresh = ref n in
    let parity = Array.init n (fun q -> [ q ]) in
    let negated = Array.make n false in
    let rec xor a b =
      match a, b with
      | [], ys -> ys
      | xs, [] -> xs
      | x :: xs, y :: ys ->
        if x < y then x :: xor xs (y :: ys)
        else if y < x then y :: xor (x :: xs) ys
        else xor xs ys
    in
    let barrier q =
      parity.(q) <- [ !fresh ];
      negated.(q) <- false;
      incr fresh
    in
    let slots : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
    let out = ref [] in
    let key q =
      Printf.sprintf "%s|%b"
        (String.concat "," (List.map string_of_int parity.(q)))
        negated.(q)
    in
    let add_phase q theta =
      let k = key q in
      match Hashtbl.find_opt slots k with
      | Some cell -> cell := Angle.add !cell theta
      | None ->
        let cell = ref theta in
        Hashtbl.add slots k cell;
        out := Phase (q, cell) :: !out
    in
    let handle g =
      match g with
      | Gate.G1 (kind, q) ->
        (match quarter kind with
        | Some theta -> add_phase q theta
        | None ->
          (match kind with
          | Gate.X ->
            negated.(q) <- not negated.(q);
            out := Fixed g :: !out
          | Gate.Y ->
            (* Y = (global i) · X·Z: a π phase at the current parity, then
               a negation *)
            add_phase q (4.0 *. Float.atan 1.0);
            negated.(q) <- not negated.(q);
            out := Fixed (Gate.G1 (Gate.X, q)) :: !out
          | Gate.H | Gate.Rx _ | Gate.Ry _ ->
            barrier q;
            out := Fixed g :: !out
          | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.Rz _ ->
            assert false))
      | Gate.Cnot (a, b) ->
        parity.(b) <- xor parity.(a) parity.(b);
        negated.(b) <- negated.(b) <> negated.(a);
        out := Fixed g :: !out
      | Gate.Swap (a, b) ->
        let pa = parity.(a) and na = negated.(a) in
        parity.(a) <- parity.(b);
        negated.(a) <- negated.(b);
        parity.(b) <- pa;
        negated.(b) <- na;
        out := Fixed g :: !out
      | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Su4 _ ->
        List.iter barrier (Gate.qubits g);
        out := Fixed g :: !out
    in
    List.iter handle (Circuit.gates circuit);
    let gates =
      List.rev_map
        (fun item ->
          match item with
          | Fixed g -> Some g
          | Phase (q, cell) ->
            (* Slot cells defer the range reduction to bind time and are
               never dropped (a slot is not a known-zero rotation). *)
            let theta = Angle.normalize !cell in
            if Peephole.is_zero_angle theta then None
            else Some (Gate.G1 (Gate.Rz theta, q)))
        !out
      |> List.filter_map (fun g -> g)
    in
    Circuit.create n gates
end

module Rebase = struct
  module Pauli = Phoenix_pauli.Pauli
  module Clifford2q = Phoenix_pauli.Clifford2q

  (* Per-qubit basis change u with u·σ·u† = Z, as (pre, post) time-ordered
     circuits: gadget(σ, θ) = [pre; gadget(Z, θ); post]. *)
  let to_z_basis sigma q =
    match sigma with
    | Pauli.Z -> [], []
    | Pauli.X -> [ Gate.G1 (Gate.H, q) ], [ Gate.G1 (Gate.H, q) ]
    | Pauli.Y ->
      ( [ Gate.G1 (Gate.Sdg, q); Gate.G1 (Gate.H, q) ],
        [ Gate.G1 (Gate.H, q); Gate.G1 (Gate.S, q) ] )
    | Pauli.I -> invalid_arg "Rebase.to_z_basis: identity"

  let rec lower_gate g =
    match g with
    | Gate.G1 _ | Gate.Cnot _ -> [ g ]
    | Gate.Cliff2 c -> List.map Gate.of_clifford_basis (Clifford2q.decompose c)
    | Gate.Rpp { p0; p1; a; b; theta } ->
      let pre_a, post_a = to_z_basis p0 a in
      let pre_b, post_b = to_z_basis p1 b in
      pre_a @ pre_b
      @ [ Gate.Cnot (a, b); Gate.G1 (Gate.Rz theta, b); Gate.Cnot (a, b) ]
      @ post_b @ post_a
    | Gate.Swap (a, b) -> [ Gate.Cnot (a, b); Gate.Cnot (b, a); Gate.Cnot (a, b) ]
    | Gate.Su4 { parts; _ } -> List.concat_map lower_gate parts

  let to_cnot_basis c =
    Circuit.create (Circuit.num_qubits c)
      (List.concat_map lower_gate (Circuit.gates c))
end

