type block = { ba : int; bb : int; mutable parts_rev : Gate.t list }

(* Greedy fusion: a block stays open on its two qubits until another 2Q
   gate claims one of them; 1Q gates are buffered per qubit and absorbed
   by the next block on that qubit.  Deferred 1Q gates and absorbed gates
   only ever commute past gates on disjoint qubits, so order is
   preserved semantically. *)
let to_su4 c =
  let n = Circuit.num_qubits c in
  let items = ref [] in
  let open_block : block option array = Array.make n None in
  let pending : (int * Gate.t) list ref array = Array.init n (fun _ -> ref []) in
  let seq = ref 0 in
  let take_pending a b =
    let ps = List.rev_append !(pending.(a)) (List.rev !(pending.(b))) in
    pending.(a) := [];
    pending.(b) := [];
    List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) ps)
  in
  let push_2q g a b =
    let same_block =
      match open_block.(a), open_block.(b) with
      | Some x, Some y when x == y -> Some x
      | _, _ -> None
    in
    let absorbed = take_pending a b in
    let as_parts g =
      match g with Gate.Su4 { parts; _ } -> parts | _ -> [ g ]
    in
    match same_block with
    | Some blk ->
      blk.parts_rev <- List.rev_append (absorbed @ as_parts g) blk.parts_rev
    | None ->
      let blk = { ba = min a b; bb = max a b; parts_rev = List.rev (absorbed @ as_parts g) } in
      items := blk :: !items;
      open_block.(a) <- Some blk;
      open_block.(b) <- Some blk
  in
  let handle g =
    incr seq;
    match Gate.qubits g with
    | [ q ] -> pending.(q) := (!seq, g) :: !(pending.(q))
    | [ a; b ] -> push_2q g a b
    | _ -> assert false
  in
  List.iter handle (Circuit.gates c);
  let tail =
    Array.to_list pending
    |> List.concat_map (fun cell -> List.rev !cell)
    |> List.sort (fun (i, _) (j, _) -> compare i j)
    |> List.map snd
  in
  let finalize blk =
    Gate.Su4 { a = blk.ba; b = blk.bb; parts = List.rev blk.parts_rev }
  in
  Circuit.create n (List.rev_map finalize !items |> fun gs -> gs @ tail)

let count_su4 c = Circuit.count_2q (to_su4 c)
