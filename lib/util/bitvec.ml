(* Bits are packed 62 per word so that all word values stay positive
   OCaml ints regardless of platform word size games. *)

let bits_per_word = 62

type t = { len : int; words : int array }

let word_count len = max 1 ((len + bits_per_word - 1) / bits_per_word)

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (word_count len) 0 }

let length v = v.len
let copy v = { len = v.len; words = Array.copy v.words }

let num_words v = Array.length v.words

let word v i = v.words.(i)

let blit_words_to v arr off =
  let nw = Array.length v.words in
  if off < 0 || off + nw > Array.length arr then
    invalid_arg "Bitvec.blit_words_to: destination too small";
  Array.blit v.words 0 arr off nw

let of_words len arr off =
  if len < 0 then invalid_arg "Bitvec.of_words: negative length";
  let nw = word_count len in
  if off < 0 || off + nw > Array.length arr then
    invalid_arg "Bitvec.of_words: source too small";
  { len; words = Array.sub arr off nw }

let blit ~src ~dst =
  if src.len <> dst.len then invalid_arg "Bitvec.blit: length mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check_index v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check_index v i;
  v.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set v i b =
  check_index v i;
  let w = i / bits_per_word and m = 1 lsl (i mod bits_per_word) in
  if b then v.words.(w) <- v.words.(w) lor m
  else v.words.(w) <- v.words.(w) land lnot m

let flip v i =
  check_index v i;
  let w = i / bits_per_word and m = 1 lsl (i mod bits_per_word) in
  v.words.(w) <- v.words.(w) lxor m

let get_unsafe v i =
  Array.unsafe_get v.words (i / bits_per_word)
  land (1 lsl (i mod bits_per_word))
  <> 0

(* Two-column extraction: bit [a] in position 0, bit [b] in position 1, so
   the per-row inner loop of the BSF delta engine reads both operand
   columns of a candidate 2Q Clifford with two word fetches. *)
let get2_unsafe v a b =
  ((Array.unsafe_get v.words (a / bits_per_word) lsr (a mod bits_per_word))
  land 1)
  lor (((Array.unsafe_get v.words (b / bits_per_word) lsr (b mod bits_per_word))
       land 1)
      lsl 1)

(* SWAR popcount over the 62 payload bits.  The usual 64-bit masks do not
   fit OCaml's 63-bit literals, but every word is < 2^62, so the first
   mask only needs even bit positions up to 60 (the shifted value has no
   bit 61) and the final byte-sum multiply cannot carry past bit 62. *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

(* Count-trailing-zeros of a non-zero word: isolate the lowest set bit and
   popcount the ones below it.  Branch-free, no per-bit loop. *)
let ctz_word w = popcount_word ((w land -w) - 1)

let popcount v = Array.fold_left (fun acc w -> acc + popcount_word w) 0 v.words
let is_zero v = Array.for_all (fun w -> w = 0) v.words
let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

(* Every word goes through a multiply/xor-shift mix, so the low bits a
   hash table indexes by depend on the whole vector; [Hashtbl.hash]
   would read only the first few words, and a plain polynomial would
   leave those low bits nearly constant across wide vectors. *)
let hash v =
  let h = ref v.len in
  for i = 0 to Array.length v.words - 1 do
    let x = (!h lxor Array.unsafe_get v.words i) * 0x1f3d5b79a3c2e7b5 in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let check_same_length a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

(* Plain loops rather than [Array.iteri] here and in the popcounts
   below: the closure it would take captures [dst] (or an accumulator),
   so every call would allocate. *)
let xor_into dst src =
  check_same_length dst src;
  for i = 0 to Array.length src.words - 1 do
    dst.words.(i) <- dst.words.(i) lxor src.words.(i)
  done

let or_into dst src =
  check_same_length dst src;
  for i = 0 to Array.length src.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let and_into dst src =
  check_same_length dst src;
  for i = 0 to Array.length src.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let logxor a b = let r = copy a in xor_into r b; r
let logor a b = let r = copy a in or_into r b; r
let logand a b = let r = copy a in and_into r b; r

let and_popcount a b =
  check_same_length a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) land b.words.(i))
  done;
  !acc

let or_popcount a b =
  check_same_length a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) lor b.words.(i))
  done;
  !acc

let iter_set f v =
  for wi = 0 to Array.length v.words - 1 do
    let w = ref v.words.(wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      f (base + ctz_word !w);
      w := !w land (!w - 1)
    done
  done

let fold_set f init v =
  let acc = ref init in
  iter_set (fun i -> acc := f !acc i) v;
  !acc

let indices v = List.rev (fold_set (fun acc i -> i :: acc) [] v)

let first_set v =
  let exception Found of int in
  try
    iter_set (fun i -> raise (Found i)) v;
    None
  with Found i -> Some i

let of_indices n is =
  let v = create n in
  List.iter (fun i -> set v i true) is;
  v

let of_string s =
  let v = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set v i true
      | _ -> invalid_arg "Bitvec.of_string: expected '0' or '1'")
    s;
  v

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')
let pp fmt v = Format.pp_print_string fmt (to_string v)
