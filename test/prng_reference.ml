(* Reference generator: [Phoenix_util.Prng] as it was when its state was
   a [{ mutable state : int64 }] record, kept verbatim below.  Every draw
   boxed a fresh state; the byte-buffer generator must reproduce its
   streams bit for bit (see the equality test in test_prng.ml). *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64 (Steele, Lea, Flood 2014). *)
let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  { state = Int64.mul seed 0xDA942042E4DD58B5L }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L
let uniform t lo hi = lo +. float t (hi -. lo)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))
