module Bitvec = Phoenix_util.Bitvec
module Pauli_string = Phoenix_pauli.Pauli_string

type t = {
  n : int;
  terms : (Pauli_string.t * float) list;
  support : Bitvec.t;
}

let weight g = Bitvec.popcount g.support

(* Groups are keyed by their support bit vector, which becomes the
   group's [support]: hashing mixes every word, so the table stays
   linear on wide registers. *)
module Support_table = Hashtbl.Make (struct
  type t = Bitvec.t

  let equal = Bitvec.equal
  let hash = Bitvec.hash
end)

(* [newest_first] holds (support, reversed terms) cells. *)
let finish_groups n newest_first =
  List.rev_map
    (fun (support, cell) -> { n; terms = List.rev !cell; support })
    newest_first

(* Exact-mode grouping must be an exact program transformation: a gadget
   may only be merged into an earlier same-support group when it commutes
   with every term of every group in between — otherwise the merge is a
   Trotter-level reordering and the gadget starts a fresh group. *)
let group_gadgets_ordered n gadgets =
  let groups = ref [] in
  let key = Bitvec.create n in
  List.iter
    (fun ((p, _) as gadget) ->
      Pauli_string.support_into p key;
      if not (Bitvec.is_zero key) then begin
        let rec find = function
          | [] -> None
          | (k, cell) :: rest ->
            if Bitvec.equal k key then Some cell
            else if
              List.for_all (fun (q, _) -> Pauli_string.commutes p q) !cell
            then find rest
            else None
        in
        match find !groups with
        | Some cell -> cell := gadget :: !cell
        | None -> groups := (Bitvec.copy key, ref [ gadget ]) :: !groups
      end)
    gadgets;
  finish_groups n !groups

(* Each gadget's support is built into one scratch vector and looked up
   with it; only a gadget that starts a group copies it. *)
let group_gadgets ?(exact = false) n gadgets =
  if exact then group_gadgets_ordered n gadgets
  else begin
    let table = Support_table.create 64 in
    let order = ref [] in
    let key = Bitvec.create n in
    List.iter
      (fun ((p, _) as gadget) ->
        Pauli_string.support_into p key;
        if not (Bitvec.is_zero key) then
          match Support_table.find_opt table key with
          | Some cell -> cell := gadget :: !cell
          | None ->
            let support = Bitvec.copy key in
            let cell = ref [ gadget ] in
            Support_table.add table support cell;
            order := (support, cell) :: !order)
      gadgets;
    finish_groups n !order
  end

let of_blocks n blocks =
  List.filter_map
    (fun block ->
      let terms =
        List.filter (fun (p, _) -> not (Pauli_string.is_identity p)) block
      in
      match terms with
      | [] -> None
      | _ ->
        let support = Bitvec.create n in
        List.iter
          (fun (p, _) -> Bitvec.or_into support (Pauli_string.support p))
          terms;
        Some { n; terms; support })
    blocks

let of_terms n terms =
  let support = Bitvec.create n in
  List.iter (fun (p, _) -> Bitvec.or_into support (Pauli_string.support p)) terms;
  { n; terms; support }

let all_commuting g =
  let rec ok = function
    | [] -> true
    | (p, _) :: rest ->
      List.for_all (fun (q, _) -> Pauli_string.commutes p q) rest && ok rest
  in
  ok g.terms
