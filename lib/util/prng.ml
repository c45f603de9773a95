(* The state lives in an 8-byte buffer, read and written with
   [Bytes.get_int64_le]/[set_int64_le], which native code keeps unboxed:
   a [float] draw allocates only its boxed result, where a
   [{ mutable state : int64 }] record boxed every new state too. *)
type t = Bytes.t

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

(* splitmix64 (Steele, Lea, Flood 2014). *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (Int64.mul (next_int64 t) 0xDA942042E4DD58B5L)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0)

let fill_float t bound a n =
  for j = 0 to n - 1 do
    let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    a.(j) <- bound *. (mantissa /. 9007199254740992.0)
  done

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
