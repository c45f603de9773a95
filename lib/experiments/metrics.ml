module Circuit = Phoenix_circuit.Circuit

type counts = { gates : int; two_q : int; depth : int; depth_2q : int }

let of_circuit c =
  {
    gates = Circuit.length c;
    two_q = Circuit.count_2q c;
    depth = Circuit.depth c;
    depth_2q = Circuit.depth_2q c;
  }

let geomean xs =
  match xs with
  | [] -> invalid_arg "Metrics.geomean: empty"
  | _ ->
    let acc =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Metrics.geomean: non-positive entry";
          acc +. log x)
        0.0 xs
    in
    exp (acc /. float_of_int (List.length xs))

let ratio a b = float_of_int a /. float_of_int b
let pct r = Printf.sprintf "%.1f%%" (100.0 *. r)
