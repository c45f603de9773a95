module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Angle = Phoenix_pauli.Angle

type claim =
  | Unchanged
  | Preserving
  | Reordering
  | Routing of { l2p : int array; n_physical : int }

type verdict = Proved | Plausible of string | Refuted of string

let verdict_label = function
  | Proved -> "proved"
  | Plausible _ -> "plausible"
  | Refuted _ -> "refuted"

let verdict_reason = function
  | Proved -> None
  | Plausible r | Refuted r -> Some r

let to_result = function
  | Proved -> Ok ()
  | Plausible r | Refuted r -> Error r

let two_pi = 8.0 *. atan 1.0

let is_zero lin = Angle.linear_is_zero ~modulo:two_pi lin
let angle_equal a b = Angle.linear_equal ~modulo:two_pi a b

module PMap = Map.Make (struct
  type t = Pauli_string.t

  let compare = Pauli_string.compare
end)

(* --- multiset comparison: per-axis summed phase polynomial --- *)

let axis_sums terms =
  List.fold_left
    (fun m (t : Domain.term) ->
      PMap.update t.Domain.axis
        (function
          | None -> Some t.Domain.angle
          | Some l -> Some (Angle.linear_add l t.Domain.angle))
        m)
    PMap.empty terms
  |> PMap.filter (fun _ l -> not (is_zero l))

let compare_multiset before after =
  let mb = axis_sums before and ma = axis_sums after in
  let bad = ref None in
  PMap.iter
    (fun axis l ->
      if !bad = None then
        match PMap.find_opt axis ma with
        | Some l' when angle_equal l l' -> ()
        | Some l' ->
          bad :=
            Some
              (Printf.sprintf "axis %s: input angle %s, output angle %s"
                 (Pauli_string.to_string axis)
                 (Angle.linear_to_string l)
                 (Angle.linear_to_string l'))
        | None ->
          bad :=
            Some
              (Printf.sprintf "axis %s (angle %s) is not realized by the output"
                 (Pauli_string.to_string axis)
                 (Angle.linear_to_string l)))
    mb;
  PMap.iter
    (fun axis l ->
      if !bad = None && not (PMap.mem axis mb) then
        bad :=
          Some
            (Printf.sprintf "output introduces axis %s (angle %s)"
               (Pauli_string.to_string axis)
               (Angle.linear_to_string l)))
    ma;
  match !bad with None -> Proved | Some m -> Refuted m

(* --- sequence comparison: trace-monoid normal form ---

   Two rotation sequences are equal up to commuting exchanges iff their
   greedy lexicographic normal forms coincide (the standard normal form
   of the trace monoid whose independence relation is Pauli-string
   commutation).  On top of the exchange freedom we normalize the two
   rewrites every order-preserving pass performs: simultaneously
   available same-axis rotations merge (sound: everything between them
   commutes with the axis) and rotations that vanish modulo 2π drop
   (global phase only). *)

let normal_form terms =
  let terms =
    Array.of_list
      (List.filter (fun (t : Domain.term) -> not (is_zero t.Domain.angle)) terms)
  in
  let k = Array.length terms in
  let pred = Array.make k 0 in
  let succs = Array.make k [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if not (Pauli_string.commutes terms.(i).Domain.axis terms.(j).Domain.axis)
      then begin
        pred.(j) <- pred.(j) + 1;
        succs.(i) <- j :: succs.(i)
      end
    done
  done;
  let emitted = Array.make k false in
  let remaining = ref k in
  let out = ref [] in
  while !remaining > 0 do
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if
        (not emitted.(i))
        && pred.(i) = 0
        && (!best < 0
           || Pauli_string.compare terms.(i).Domain.axis
                terms.(!best).Domain.axis
              < 0)
      then best := i
    done;
    let b = !best in
    assert (b >= 0);
    let axis = terms.(b).Domain.axis in
    let merged = ref Angle.linear_zero in
    for i = 0 to k - 1 do
      if
        (not emitted.(i))
        && pred.(i) = 0
        && Pauli_string.equal terms.(i).Domain.axis axis
      then begin
        merged := Angle.linear_add !merged terms.(i).Domain.angle;
        emitted.(i) <- true;
        decr remaining;
        List.iter (fun j -> pred.(j) <- pred.(j) - 1) succs.(i)
      end
    done;
    if not (is_zero !merged) then
      out := { Domain.axis; Domain.angle = !merged } :: !out
  done;
  List.rev !out

(* --- canonicalization: quarter-turns migrate into the frame ---

   Passes rewrite freely between the Clifford-gate spelling and the
   rotation spelling of the same operation: phase folding turns
   [S]/[Sdg]/[Z] into [Rz] phases and fuses them into neighbouring
   cells, peephole merges can sum two rotations to a quarter-turn.
   Comparing raw abstractions would then see content shift between the
   frame and the phase polynomial and refute sound rewrites.  So before
   any frame or term comparison we canonicalize: merge the term list
   into its trace-monoid normal form first (so fused cells and their
   unfused spellings reassociate to the same constants), then sweep the
   merged sequence left-to-right peeling quarter-turn multiples out of
   each constant into an extracted Clifford [P].  With the terms in
   product order [t_m ⋯ t_1] (earliest rightmost), peeling [t_i =
   Q_i·r_i] and commuting each [Q_i] leftwards conjugates every later
   term by the quarter-turns extracted so far, which is exactly a
   pullback through [P_{i-1} = Q_1⋯Q_{i-1}]; the result is the exact
   factorization [U = (F·P_m)·(r_m ⋯ r_1)] — same operator, canonical
   frame/polynomial split.

   One round is not enough: the pullback can bring two terms onto the
   same axis that only meet after the peel (e.g. two [XYYI] rotations
   separated by Z quarter-turns on the phase-folded side), and a side
   that merges them splits the summed angle differently from a side
   that does not.  So the round repeats until a normal form merges
   nothing.  Each repeat removes at least one term, so the loop ends,
   and each round is the same exact refactoring. *)
let peel (d : Domain.t) terms =
  let p = ref (Frame.identity d.Domain.n) in
  let acc = ref [] in
  List.iter
    (fun (t : Domain.term) ->
      let negated, pulled = Frame.image !p t.Domain.axis in
      let lin = if negated then Angle.linear_neg t.Domain.angle else t.Domain.angle in
      let k, rest = Domain.split_quarter_turns lin in
      if not (is_zero rest) then
        acc := { Domain.axis = pulled; Domain.angle = rest } :: !acc;
      if k <> 0 then begin
        let q = Frame.identity d.Domain.n in
        Frame.apply_pauli_rotation q pulled k;
        (* P_i = P_{i-1}·Q_i: Q_i sits earlier in scan order. *)
        p := Frame.compose q !p
      end)
    terms;
  {
    d with
    Domain.terms = List.rev !acc;
    Domain.frame = Frame.compose !p d.Domain.frame;
  }

let canonicalize (d : Domain.t) =
  let rec round d nf =
    let d = peel d nf in
    let nf = normal_form d.Domain.terms in
    if List.length nf < List.length d.Domain.terms then round d nf else d
  in
  round d (normal_form d.Domain.terms)

let compare_sequence before after =
  let nb = normal_form before and na = normal_form after in
  let rec go i bs as_ =
    match (bs, as_) with
    | [], [] -> Proved
    | (b : Domain.term) :: _, [] ->
      Refuted
        (Printf.sprintf "rotation #%d %s is not realized by the output" i
           (Domain.term_to_string b))
    | [], a :: _ ->
      Refuted
        (Printf.sprintf "output emits extra rotation #%d %s" i
           (Domain.term_to_string a))
    | b :: bs', a :: as_' ->
      if not (Pauli_string.equal b.Domain.axis a.Domain.axis) then
        Refuted
          (Printf.sprintf
             "rotation #%d: input %s vs output %s (non-commuting reorder or \
              axis change)"
             i (Domain.term_to_string b) (Domain.term_to_string a))
      else if not (angle_equal b.Domain.angle a.Domain.angle) then
        Refuted
          (Printf.sprintf "rotation #%d on %s: input angle %s, output angle %s"
             i
             (Pauli_string.to_string b.Domain.axis)
             (Angle.linear_to_string b.Domain.angle)
             (Angle.linear_to_string a.Domain.angle))
      else go (i + 1) bs' as_'
  in
  go 0 nb na

(* --- structural comparison (the Unchanged claim) --- *)

let compare_structural before after =
  let rec go i bs as_ =
    match (bs, as_) with
    | [], [] -> Proved
    | _ :: _, [] | [], _ :: _ ->
      Refuted
        (Printf.sprintf
           "claimed unchanged, but term counts differ (%d vs %d)"
           (List.length before) (List.length after))
    | (b : Domain.term) :: bs', (a : Domain.term) :: as_' ->
      if
        Pauli_string.equal b.Domain.axis a.Domain.axis
        && angle_equal b.Domain.angle a.Domain.angle
      then go (i + 1) bs' as_'
      else
        Refuted
          (Printf.sprintf "claimed unchanged, but term #%d differs: %s vs %s"
             i (Domain.term_to_string b) (Domain.term_to_string a))
  in
  go 0 before after

(* --- the routing claim --- *)

(* Raw-then-canonical disjunction.  The raw comparison is exact on the
   as-scanned abstractions and is order-robust (no extraction); the
   canonical one reconciles gate-vs-rotation spellings of the same
   Clifford but its extraction sweep follows each side's own term
   order, so it can disagree across claims that genuinely reorder
   non-commuting terms.  Each prover is individually sound, so proving
   under either relation proves the boundary; when both fail, a
   plausible verdict wins over a refutation, and otherwise the
   canonical prover's reason (the more lenient relation) is
   reported. *)
let either_way raw canonical =
  match raw () with
  | Proved -> Proved
  | first -> (
    match canonical () with
    | Proved -> Proved
    | Plausible _ as p -> p
    | second -> ( match first with Plausible _ -> first | _ -> second))

let build_p2l ~l2p ~n_logical ~n_physical =
  if Array.length l2p <> n_logical then
    Error
      (Printf.sprintf "claimed layout places %d logical qubits, program has %d"
         (Array.length l2p) n_logical)
  else begin
    let p2l = Array.make n_physical (-1) in
    let bad = ref None in
    Array.iteri
      (fun l p ->
        if p < 0 || p >= n_physical then
          bad :=
            Some
              (Printf.sprintf "claimed layout maps logical %d off-register (%d)"
                 l p)
        else if p2l.(p) >= 0 then
          bad :=
            Some
              (Printf.sprintf
                 "claimed layout is not injective: physical %d taken twice" p)
        else p2l.(p) <- l)
      l2p;
    match !bad with Some m -> Error m | None -> Ok p2l
  end

let relabel_terms ~p2l ~n_logical terms =
  let bad = ref None in
  let relabel (t : Domain.term) =
    match !bad with
    | Some _ -> t
    | None ->
      let axis =
        List.fold_left
          (fun acc q ->
            let l = p2l.(q) in
            if l < 0 then begin
              bad :=
                Some
                  (Printf.sprintf
                     "rotation %s touches unmapped physical qubit %d"
                     (Domain.term_to_string t) q);
              acc
            end
            else Pauli_string.set acc l (Pauli_string.get t.Domain.axis q))
          (Pauli_string.identity n_logical)
          (Pauli_string.support_list t.Domain.axis)
      in
      { t with Domain.axis }
  in
  let terms = List.map relabel terms in
  match !bad with Some m -> Error m | None -> Ok terms

(* A correct routing satisfies [U_phys = Π · W·U_log·W†] with [W] the
   initial-placement relabeling and [Π] some wire permutation (the SWAP
   network's residue).  On canonical abstractions that splits into two
   checks: the terms, relabeled back to logical wires, must match under
   the claimed relation; and the physical residual frame must equal
   [Π · W·F_log·W†] for {e some} sign-free permutation [Π] — i.e. the
   per-wire (X, Z) generator-image pairs of the physical frame must be,
   as a multiset, exactly the relabeled image pairs of the logical
   frame (extended as the identity on unmapped wires). *)
let frame_matches_layout ~l2p ~p2l ~n_logical ~n_physical logical_frame
    physical_frame =
  let relabel_string s =
    List.fold_left
      (fun acc l -> Pauli_string.set acc l2p.(l) (Pauli_string.get s l))
      (Pauli_string.identity n_physical)
      (Pauli_string.support_list s)
  in
  let signed_key (neg, s) =
    (if neg then "-" else "+") ^ Pauli_string.to_string s
  in
  let expected q =
    let img gen =
      let l = p2l.(q) in
      if l < 0 then (false, Pauli_string.single n_physical q gen)
      else
        let neg, s =
          Frame.image logical_frame (Pauli_string.single n_logical l gen)
        in
        (neg, relabel_string s)
    in
    signed_key (img Pauli.X) ^ "|" ^ signed_key (img Pauli.Z)
  in
  let actual p =
    let img gen =
      Frame.image physical_frame (Pauli_string.single n_physical p gen)
    in
    signed_key (img Pauli.X) ^ "|" ^ signed_key (img Pauli.Z)
  in
  let counts = Hashtbl.create (2 * n_physical) in
  for q = 0 to n_physical - 1 do
    let k = expected q in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let ok = ref true in
  for p = 0 to n_physical - 1 do
    let k = actual p in
    match Hashtbl.find_opt counts k with
    | Some c when c > 0 -> Hashtbl.replace counts k (c - 1)
    | _ -> ok := false
  done;
  !ok

let check_routing ~exact ~l2p ~n_physical (before : Domain.t)
    (after : Domain.t) =
  if after.Domain.n <> n_physical then
    Refuted
      (Printf.sprintf
         "certificate claims a %d-qubit physical register, output has %d"
         n_physical after.Domain.n)
  else
    let n_logical = before.Domain.n in
    match build_p2l ~l2p ~n_logical ~n_physical with
    | Error m -> Refuted m
    | Ok p2l ->
      let attempt (b : Domain.t) (a : Domain.t) =
        if
          not
            (frame_matches_layout ~l2p ~p2l ~n_logical ~n_physical
               b.Domain.frame a.Domain.frame)
        then
          Refuted
            "routed circuit's residual frame is not the placed image of the \
             input frame modulo a wire permutation"
        else
          match relabel_terms ~p2l ~n_logical a.Domain.terms with
          | Error m -> Refuted m
          | Ok terms ->
            if exact then compare_sequence b.Domain.terms terms
            else compare_multiset b.Domain.terms terms
      in
      either_way
        (fun () -> attempt before after)
        (fun () -> attempt (canonicalize before) (canonicalize after))

(* --- claim relations --- *)

let guard f = try f () with Invalid_argument m | Failure m -> Plausible m

let same_register (a : Domain.t) (b : Domain.t) k =
  if b.Domain.n <> a.Domain.n then
    Refuted
      (Printf.sprintf "register size changed (%d to %d) without a routing claim"
         a.Domain.n b.Domain.n)
  else k ()

let check_claim ~exact claim (a : Domain.t) (b : Domain.t) =
  guard (fun () ->
      match claim with
      | Routing { l2p; n_physical } -> check_routing ~exact ~l2p ~n_physical a b
      | Unchanged ->
        (* Strictest relation: raw abstractions, no canonicalization. *)
        same_register a b (fun () ->
            if not (Frame.equal a.Domain.frame b.Domain.frame) then
              Refuted "residual Clifford frames differ"
            else compare_structural a.Domain.terms b.Domain.terms)
      | (Preserving | Reordering) as claim ->
        same_register a b (fun () ->
            let check (x : Domain.t) (y : Domain.t) =
              if not (Frame.equal x.Domain.frame y.Domain.frame) then
                Refuted "residual Clifford frames differ"
              else
                match claim with
                | Preserving -> compare_sequence x.Domain.terms y.Domain.terms
                | _ -> compare_multiset x.Domain.terms y.Domain.terms
            in
            either_way
              (fun () -> check a b)
              (fun () -> check (canonicalize a) (canonicalize b))))

(* --- end-to-end program-vs-circuit check --- *)

let pad_axis n' p =
  if Pauli_string.num_qubits p = n' then p
  else
    List.fold_left
      (fun acc q -> Pauli_string.set acc q (Pauli_string.get p q))
      (Pauli_string.identity n')
      (Pauli_string.support_list p)

(* The raw attempt compares the circuit's residual frame against the
   identity in place and the program as a bare term list; the program's
   identity-framed abstraction is built only when the canonical attempt
   needs it.  A passing check therefore allocates one n-qubit frame, the
   circuit scan's. *)
let check_program ?(exact = false) ?l2p n program circuit =
  guard (fun () ->
      let after = Domain.of_circuit circuit in
      match l2p with
      | Some l2p ->
        check_routing ~exact ~l2p ~n_physical:after.Domain.n
          (Domain.of_terms n program) after
      | None ->
        if after.Domain.n < n then
          Refuted
            (Printf.sprintf "circuit acts on %d qubits, program on %d"
               after.Domain.n n)
        else
          (* Dangling wires beyond the program's register are allowed
             (the liveness lint owns that complaint); embed the program
             on the circuit's register. *)
          let n' = after.Domain.n in
          let before =
            Domain.program_terms
              (List.map (fun (p, t) -> (pad_axis n' p, t)) program)
          in
          let relation x y =
            if exact then compare_sequence x y else compare_multiset x y
          in
          let frame_mismatch =
            Refuted
              "residual Clifford frame: conjugation layers do not cancel \
               against the program"
          in
          either_way
            (fun () ->
              if not (Frame.is_identity after.Domain.frame) then frame_mismatch
              else relation before after.Domain.terms)
            (fun () ->
              let x =
                canonicalize
                  { Domain.n = n'; terms = before; frame = Frame.identity n' }
              in
              let y = canonicalize after in
              if not (Frame.equal x.Domain.frame y.Domain.frame) then
                frame_mismatch
              else relation x.Domain.terms y.Domain.terms))
