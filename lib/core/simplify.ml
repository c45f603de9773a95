module Bsf = Phoenix_pauli.Bsf
module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Clifford2q = Phoenix_pauli.Clifford2q

type item =
  | Cliff of Clifford2q.t
  | Rotations of (Pauli_string.t * float) list
  | Core of (Pauli_string.t * float) list

type t = item list

let row_to_rotation (r : Bsf.row) =
  ( r.Bsf.pauli,
    if r.Bsf.neg then Phoenix_pauli.Angle.neg r.Bsf.angle else r.Bsf.angle )

(* Synthesizable residue: union support on ≤ 2 qubits, or nothing but 1Q
   rotations left (the latter only arises in exact mode, where
   anticommuting locals may be unpeelable). *)
let finished bsf =
  Bsf.total_weight bsf <= 2 || Bsf.nonlocal_count bsf = 0

(* Pair-kill Clifford for one row: with σa on qubit a and σb on qubit b,
   conjugating by C(σa, σ1) with {σ1, σb} anticommuting maps
   σa⊗σb ↦ ±I⊗σb, reducing the row's weight by exactly one. *)
let pair_kill bsf row_idx =
  let p = Bsf.row_pauli bsf row_idx in
  match Pauli_string.support_list p with
  | a :: b :: _ ->
    let sa = Pauli_string.get p a and sb = Pauli_string.get p b in
    let s1 =
      match List.find_opt (fun s -> not (Pauli.commutes s sb)) [ Pauli.X; Pauli.Y; Pauli.Z ] with
      | Some s -> s
      | None -> assert false (* sb ≠ I: two of X,Y,Z anticommute with it *)
    in
    (match Clifford2q.kind_of_sigmas sa s1 with
    | Some (kind, false) -> Clifford2q.make kind a b
    | Some (kind, true) -> Clifford2q.make kind b a
    | None -> assert false (* sa ≠ I on a support qubit *))
  | [ _ ] | [] -> invalid_arg "Simplify.pair_kill: row already local"

let max_weight_row bsf =
  let n_rows = Bsf.num_rows bsf in
  let best = ref (-1) and best_w = ref 1 in
  for i = 0 to n_rows - 1 do
    let w = Bsf.row_weight bsf i in
    if w > !best_w then begin
      best := i;
      best_w := w
    end
  done;
  !best

(* Reduce one maximum-weight row to weight 1 by repeated pair kills; each
   kill strictly reduces that row's weight, so the cycle terminates. *)
let forced_cycle bsf epochs =
  let target = max_weight_row bsf in
  if target >= 0 then
    while Bsf.row_weight bsf target > 1 do
      let cliff = pair_kill bsf target in
      Bsf.apply_clifford2q bsf cliff;
      epochs := (cliff, []) :: !epochs
    done

let run ?(exact = false) ?(max_epochs = 100_000) ?memo n terms =
  let bsf = Bsf.of_terms n terms in
  let ws = Bsf.Delta.create () in
  let epochs = ref [] in
  (* epochs: (cliff, locals peeled just before it), most recent first *)
  let trailing = ref [] in
  let epoch_count = ref 0 in
  let finished_loop = ref false in
  while not !finished_loop do
    Phoenix_util.Budget.checkpoint ();
    incr epoch_count;
    (* Past the epoch budget, abandon exact peeling: termination over
       exactness in (never observed) pathological cases. *)
    let commuting_only = exact && !epoch_count < max_epochs in
    let locals =
      List.map row_to_rotation (Bsf.pop_local_rows ~commuting_only bsf)
    in
    if finished bsf then begin
      trailing := locals;
      finished_loop := true
    end
    else begin
      let current_cost = Bsf.cost bsf in
      match Bsf.Delta.best ?memo ws bsf with
      | Some (cliff, cost) when cost < current_cost -. 1e-9 ->
        Bsf.apply_clifford2q bsf cliff;
        epochs := (cliff, locals) :: !epochs
      | Some _ | None ->
        if exact then begin
          (* In exact mode the constructive fallback can ping-pong: the
             pair-kill's collateral weight growth lands on locals that
             anticommute with the rest and cannot be peeled.  Bail out —
             the synthesis ladders any residual rows in program order,
             which is exact. *)
          trailing := locals;
          finished_loop := true
        end
        else begin
          (* Greedy stalled: constructive fallback.  The locals peeled
             this epoch belong just before the first forced
             conjugation. *)
          let before = !epochs in
          forced_cycle bsf epochs;
          if locals <> [] then begin
            let rec attach = function
              | (c, _) :: rest when rest == before -> (c, locals) :: rest
              | e :: rest -> e :: attach rest
              | [] -> assert false
            in
            epochs := attach !epochs
          end
        end
    end
  done;
  let core = Core (Bsf.to_terms bsf) in
  let ordered_epochs = List.rev !epochs in
  let leading = List.map (fun (c, _) -> Cliff c) ordered_epochs in
  let unwind =
    List.concat_map
      (fun (c, locals) ->
        if locals = [] then [ Cliff c ] else [ Cliff c; Rotations locals ])
      !epochs (* most recent first: c_k, l_k, c_{k-1}, … *)
  in
  let trailing_item = if !trailing = [] then [] else [ Rotations !trailing ] in
  leading @ [ core ] @ trailing_item @ unwind

let num_cliffords cfg =
  List.fold_left
    (fun acc item -> match item with Cliff _ -> acc + 1 | Rotations _ | Core _ -> acc)
    0 cfg

let core_terms cfg =
  List.concat_map
    (function Core ts -> ts | Cliff _ | Rotations _ -> [])
    cfg
