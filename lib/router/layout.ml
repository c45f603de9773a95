type t = { l2p : int array; p2l : int array (* -1 = unoccupied *) }

let trivial ~n_logical ~n_physical =
  if n_logical > n_physical then
    invalid_arg "Layout.trivial: more logical than physical qubits";
  let p2l = Array.make n_physical (-1) in
  for i = 0 to n_logical - 1 do
    p2l.(i) <- i
  done;
  { l2p = Array.init n_logical (fun i -> i); p2l }

let of_l2p ~n_physical l2p =
  let n_logical = Array.length l2p in
  if n_logical > n_physical then
    invalid_arg "Layout.of_l2p: more logical than physical qubits";
  let p2l = Array.make n_physical (-1) in
  Array.iteri
    (fun l p ->
      if p < 0 || p >= n_physical then invalid_arg "Layout.of_l2p: out of range";
      if p2l.(p) <> -1 then invalid_arg "Layout.of_l2p: not injective";
      p2l.(p) <- l)
    l2p;
  { l2p = Array.copy l2p; p2l }

let n_logical t = Array.length t.l2p
let n_physical t = Array.length t.p2l
let physical_of t l = t.l2p.(l)
let to_l2p t = Array.copy t.l2p
let logical_of t p = if t.p2l.(p) = -1 then None else Some t.p2l.(p)

let swap_physical t p q =
  let l2p = Array.copy t.l2p and p2l = Array.copy t.p2l in
  let lp = p2l.(p) and lq = p2l.(q) in
  p2l.(p) <- lq;
  p2l.(q) <- lp;
  if lp <> -1 then l2p.(lp) <- q;
  if lq <> -1 then l2p.(lq) <- p;
  { l2p; p2l }

let equal a b = a.l2p = b.l2p && a.p2l = b.p2l

let pp fmt t =
  Format.fprintf fmt "layout[";
  Array.iteri (fun l p -> Format.fprintf fmt "%d→%d " l p) t.l2p;
  Format.fprintf fmt "]"
