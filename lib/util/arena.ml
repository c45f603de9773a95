type t = {
  stride : int;
  mutable rows : int;
  mutable buf : int array;
}

let create ?(capacity = 0) ~stride () =
  if stride < 1 then invalid_arg "Arena.create: stride must be positive";
  if capacity < 0 then invalid_arg "Arena.create: negative capacity";
  { stride; rows = 0; buf = Array.make (max 1 (capacity * stride)) 0 }

let stride a = a.stride
let rows a = a.rows
let buffer a = a.buf

let check_row a i =
  if i < 0 || i >= a.rows then invalid_arg "Arena: record index out of range"

let base a i =
  check_row a i;
  i * a.stride

let reserve a extra =
  let need = (a.rows + extra) * a.stride in
  if need > Array.length a.buf then begin
    let cap = max need (2 * Array.length a.buf) in
    let buf = Array.make cap 0 in
    Array.blit a.buf 0 buf 0 (a.rows * a.stride);
    a.buf <- buf
  end

let push a =
  reserve a 1;
  let i = a.rows in
  Array.fill a.buf (i * a.stride) a.stride 0;
  a.rows <- i + 1;
  i

let push_n a k =
  if k < 0 then invalid_arg "Arena.push_n: negative count";
  reserve a k;
  Array.fill a.buf (a.rows * a.stride) (k * a.stride) 0;
  a.rows <- a.rows + k

let compact a ~keep moved =
  let s = a.stride in
  let dst = ref 0 in
  for i = 0 to a.rows - 1 do
    if keep i then begin
      let j = !dst in
      if j <> i then Array.blit a.buf (i * s) a.buf (j * s) s;
      moved i j;
      dst := j + 1
    end
  done;
  a.rows <- !dst;
  !dst

let copy a =
  {
    stride = a.stride;
    rows = a.rows;
    buf = Array.sub a.buf 0 (max 1 (a.rows * a.stride));
  }

let words_equal a i b j =
  if a.stride <> b.stride then invalid_arg "Arena.words_equal: stride mismatch";
  check_row a i;
  check_row b j;
  let s = a.stride in
  let oa = i * s and ob = j * s in
  let rec go k =
    k = s || (a.buf.(oa + k) = b.buf.(ob + k) && go (k + 1))
  in
  go 0
