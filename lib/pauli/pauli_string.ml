module Bitvec = Phoenix_util.Bitvec

type t = { x : Bitvec.t; z : Bitvec.t }

let num_qubits t = Bitvec.length t.x

let identity n =
  if n <= 0 then invalid_arg "Pauli_string.identity: need at least one qubit";
  { x = Bitvec.create n; z = Bitvec.create n }

let of_list ps =
  let n = List.length ps in
  let t = identity n in
  List.iteri
    (fun q p ->
      let x, z = Pauli.to_bits p in
      Bitvec.set t.x q x;
      Bitvec.set t.z q z)
    ps;
  t

let get t q = Pauli.of_bits ~x:(Bitvec.get t.x q) ~z:(Bitvec.get t.z q)

let to_list t = List.init (num_qubits t) (get t)

let of_string s =
  if String.length s = 0 then invalid_arg "Pauli_string.of_string: empty";
  of_list (List.init (String.length s) (fun i -> Pauli.of_char s.[i]))

let to_string t = String.init (num_qubits t) (fun q -> Pauli.to_char (get t q))

let of_bits ~x ~z =
  if Bitvec.length x <> Bitvec.length z then
    invalid_arg "Pauli_string.of_bits: length mismatch";
  { x = Bitvec.copy x; z = Bitvec.copy z }


let of_bits_owned ~x ~z =
  if Bitvec.length x <> Bitvec.length z then
    invalid_arg "Pauli_string.of_bits_owned: length mismatch";
  { x; z }

let blit_bits_to t ~x_dst ~x_off ~z_dst ~z_off =
  Bitvec.blit_words_to t.x x_dst x_off;
  Bitvec.blit_words_to t.z z_dst z_off

let set t q p =
  let x, z = Pauli.to_bits p in
  let t' = { x = Bitvec.copy t.x; z = Bitvec.copy t.z } in
  Bitvec.set t'.x q x;
  Bitvec.set t'.z q z;
  t'

let single n q p = set (identity n) q p
let support t = Bitvec.logor t.x t.z

let support_into t dst =
  Bitvec.blit ~src:t.x ~dst;
  Bitvec.or_into dst t.z

let weight t = Bitvec.or_popcount t.x t.z
let support_list t = Bitvec.indices (support t)
let is_identity t = Bitvec.is_zero t.x && Bitvec.is_zero t.z

(* One parity over the words: popcount(ax·bz) + popcount(az·bx) is even
   exactly when the xor of every word of ax·bz and az·bx has an even
   popcount. *)
let commutes a b =
  if num_qubits a <> num_qubits b then
    invalid_arg "Pauli_string.commutes: size mismatch";
  let acc = ref 0 in
  for i = 0 to Bitvec.num_words a.x - 1 do
    acc :=
      !acc
      lxor (Bitvec.word a.x i land Bitvec.word b.z i)
      lxor (Bitvec.word a.z i land Bitvec.word b.x i)
  done;
  Bitvec.popcount_word !acc land 1 = 0

(* Word-parallel phase computation (the standard BSF trick): the i-power
   contributed by one qubit is g(x1,z1,x2,z2) ∈ {−1,0,+1} with
     g = z2−x2 on Y columns, z2·(2x2−1) on X columns, x2·(1−2z2) on Z
   columns (Aaronson–Gottesman), so the total phase is
   (#plus − #minus) mod 4 with the ±1 cases picked out by bit masks —
   62 qubits per word instead of one. *)
let mul a b =
  let n = num_qubits a in
  if n <> num_qubits b then invalid_arg "Pauli_string.mul: size mismatch";
  let plus = ref 0 and minus = ref 0 in
  for wi = 0 to Bitvec.num_words a.x - 1 do
    let x1 = Bitvec.word a.x wi
    and z1 = Bitvec.word a.z wi
    and x2 = Bitvec.word b.x wi
    and z2 = Bitvec.word b.z wi in
    let y1 = x1 land z1
    and xo1 = x1 land lnot z1
    and zo1 = z1 land lnot x1 in
    let p =
      y1 land z2 land lnot x2
      lor (xo1 land x2 land z2)
      lor (zo1 land x2 land lnot z2)
    in
    let m =
      y1 land x2 land lnot z2
      lor (xo1 land z2 land lnot x2)
      lor (zo1 land x2 land z2)
    in
    plus := !plus + Bitvec.popcount_word p;
    minus := !minus + Bitvec.popcount_word m
  done;
  let phase = ((!plus - !minus) mod 4 + 4) mod 4 in
  phase, { x = Bitvec.logxor a.x b.x; z = Bitvec.logxor a.z b.z }

let equal a b = Bitvec.equal a.x b.x && Bitvec.equal a.z b.z

let compare a b =
  let c = Bitvec.compare a.x b.x in
  if c <> 0 then c else Bitvec.compare a.z b.z

let restrict t sites =
  let k = Array.length sites in
  if k = num_qubits t then t
  else begin
    let x = Bitvec.create k and z = Bitvec.create k in
    Array.iteri
      (fun i q ->
        if Bitvec.get t.x q then Bitvec.set x i true;
        if Bitvec.get t.z q then Bitvec.set z i true)
      sites;
    { x; z }
  end

let hash t = Hashtbl.hash (Bitvec.hash t.x, Bitvec.hash t.z)
let pp fmt t = Format.pp_print_string fmt (to_string t)
