(* The historical greedy search of Algorithm 1 and the simplify loop
   around it, kept as the test reference for [Bsf.Delta.best] and
   [Simplify.run].

   [best] scores every candidate by copying the tableau, conjugating the
   copy and reading [Bsf.cost], in kind-major order: kinds in
   [Clifford2q.all_kinds] order, then the first operand, then the
   second, by support position (symmetric kinds only with the first
   below the second).  A strict [<] keeps the first of equal costs.
   [run] is the simplify loop as it stood when the pair scan replaced
   this search, with [best] in its place. *)

module Bsf = Phoenix_pauli.Bsf
module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Clifford2q = Phoenix_pauli.Clifford2q
module Simplify = Phoenix.Simplify

let best bsf =
  let support = Array.of_list (Bsf.support_indices bsf) in
  let m = Array.length support in
  let best = ref None in
  List.iter
    (fun kind ->
      for p1 = 0 to m - 1 do
        for p2 = 0 to m - 1 do
          if p1 < p2 || (p1 > p2 && not (Clifford2q.is_symmetric kind)) then begin
            let g = Clifford2q.make kind support.(p1) support.(p2) in
            let t = Bsf.copy bsf in
            Bsf.apply_clifford2q t g;
            let c = Bsf.cost t in
            match !best with
            | Some (_, bc) when not (c < bc) -> ()
            | Some _ | None -> best := Some (g, c)
          end
        done
      done)
    Clifford2q.all_kinds;
  !best

(* --- the simplify loop ------------------------------------------------- *)

let row_to_rotation (r : Bsf.row) =
  ( r.Bsf.pauli,
    if r.Bsf.neg then Phoenix_pauli.Angle.neg r.Bsf.angle else r.Bsf.angle )

let finished bsf =
  Bsf.total_weight bsf <= 2 || Bsf.nonlocal_count bsf = 0

let pair_kill bsf row_idx =
  let p = Bsf.row_pauli bsf row_idx in
  match Pauli_string.support_list p with
  | a :: b :: _ ->
    let sa = Pauli_string.get p a and sb = Pauli_string.get p b in
    let s1 =
      match List.find_opt (fun s -> not (Pauli.commutes s sb)) [ Pauli.X; Pauli.Y; Pauli.Z ] with
      | Some s -> s
      | None -> assert false
    in
    (match Clifford2q.kind_of_sigmas sa s1 with
    | Some (kind, false) -> Clifford2q.make kind a b
    | Some (kind, true) -> Clifford2q.make kind b a
    | None -> assert false)
  | [ _ ] | [] -> invalid_arg "Simplify_reference.pair_kill: row already local"

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

let forced_cycle bsf epochs =
  let target = max_weight_row bsf in
  if target >= 0 then
    while Bsf.row_weight bsf target > 1 do
      let cliff = pair_kill bsf target in
      Bsf.apply_clifford2q bsf cliff;
      epochs := (cliff, []) :: !epochs
    done

let run ?(exact = false) ?(max_epochs = 100_000) n terms =
  let bsf = Bsf.of_terms n terms in
  let epochs = ref [] in
  let trailing = ref [] in
  let epoch_count = ref 0 in
  let finished_loop = ref false in
  while not !finished_loop do
    incr epoch_count;
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
      match best bsf with
      | Some (cliff, cost) when cost < current_cost -. 1e-9 ->
        Bsf.apply_clifford2q bsf cliff;
        epochs := (cliff, locals) :: !epochs
      | Some _ | None ->
        if exact then begin
          trailing := locals;
          finished_loop := true
        end
        else begin
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
  let core = Simplify.Core (Bsf.to_terms bsf) in
  let ordered_epochs = List.rev !epochs in
  let leading = List.map (fun (c, _) -> Simplify.Cliff c) ordered_epochs in
  let unwind =
    List.concat_map
      (fun (c, locals) ->
        if locals = [] then [ Simplify.Cliff c ]
        else [ Simplify.Cliff c; Simplify.Rotations locals ])
      !epochs
  in
  let trailing_item =
    if !trailing = [] then [] else [ Simplify.Rotations !trailing ]
  in
  leading @ [ core ] @ trailing_item @ unwind

(* Bit-for-bit equality of two configurations: gates by kind and
   operands, strings by their bits, angles by their IEEE bits. *)
let equal_config (a : Simplify.t) (b : Simplify.t) =
  let terms_equal xs ys =
    List.length xs = List.length ys
    && List.for_all2
         (fun (p, x) (q, y) ->
           Pauli_string.equal p q
           && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         xs ys
  in
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match x, y with
         | Simplify.Cliff c, Simplify.Cliff d -> c = d
         | Simplify.Rotations xs, Simplify.Rotations ys
         | Simplify.Core xs, Simplify.Core ys ->
           terms_equal xs ys
         | (Simplify.Cliff _ | Simplify.Rotations _ | Simplify.Core _), _ ->
           false)
       a b
