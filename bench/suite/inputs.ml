(* The benchmark's inputs: which programs each workload compiles, and
   every seeded choice — the op order, the serve request stream and its
   arrival times, and the VQE parameter vectors.  Everything here is a
   pure function of the seed; the compiler sees only what these
   generators produce. *)

module Prng = Phoenix_util.Prng
module Json = Phoenix_serve.Json

(* One independent generator per purpose, so adding draws to one stream
   never shifts another. *)
let rng ~seed salt = Prng.create ((seed * 1_000_003) + salt)

(* --- compile workloads ------------------------------------------------- *)

type target = Logical | Heavy_hex

type program = { spec : string;  (** a {!Phoenix_serve.Workload} spec *)
                 target : target }

let on target specs = List.map (fun spec -> { spec; target }) specs

(* Table-I UCCSD on an all-to-all CNOT target: the paper's headline
   category, dominated by simplify, order and lower. *)
let uccsd_logical =
  on Logical
    [ "uccsd:LiH_frz_JW"; "uccsd:NH_frz_BK"; "uccsd:LiH_cmplt_JW";
      "uccsd:H2O_frz_JW"; "uccsd:CH2_frz_BK"; "uccsd:CH2_cmplt_BK" ]

(* The 64-qubit heavy-hex: UCCSD takes the SABRE-refinement router, the
   Z-diagonal QAOA cost layers take the commuting-set multistart. *)
let hw_route =
  on Heavy_hex
    [ "uccsd:LiH_frz_JW"; "uccsd:LiH_frz_BK"; "uccsd:NH_frz_JW";
      "uccsd:H2O_frz_BK"; "qaoa:Rand-16"; "qaoa:Rand-24"; "qaoa:Reg3-24" ]

(* 2-local programs on 100-500 qubits, where ordering dominates and its
   cost per gadget grows with the register. *)
let large_sparse =
  on Logical
    [ "qaoa:Reg3-250"; "qaoa:Reg3-500"; "fermi-hubbard:5x5"; "tfim:200";
      "heisenberg:100" ]

(* A round is one op of every program, in a seeded order.  Runs are made
   of whole rounds, so the program mix is the same however many rounds
   fit in the measured time. *)
type schedule = { order_rng : Prng.t; programs : int }

let schedule ~seed programs = { order_rng = rng ~seed 1; programs }

let next_round s =
  let a = Array.init s.programs Fun.id in
  Prng.shuffle s.order_rng a;
  a

(* --- serve-mix ---------------------------------------------------------- *)

type cls = Hit | Fresh | Template | Routed

let classes = [ Hit; Fresh; Template; Routed ]

let cls_name = function
  | Hit -> "hit"
  | Fresh -> "fresh"
  | Template -> "template"
  | Routed -> "routed"

(* Repeated builtins: after the first request each one reads its groups
   from the daemon's shared synthesis cache. *)
let hit_specs =
  [| "uccsd:LiH_frz_JW"; "uccsd:NH_frz_BK"; "heisenberg:16"; "tfim:24" |]

(* Heavy-hex QAOA builtins: routed, and each resolution builds the whole
   QAOA graph suite. *)
let routed_specs = [| "qaoa:Rand-16"; "qaoa:Reg3-16"; "qaoa:Reg3-20" |]

let template_spec = "uccsd:LiH_frz_JW"
let binds_per_template = 16

(* Fresh inline Hamiltonians have a fixed shape — 10 qubits, 24 terms of
   weight 2, 3, 4, 2, ... — so every seed asks for the same amount of
   work; only the strings and coefficients (and so the cache keys)
   change. *)
let fresh_qubits = 10
let fresh_terms = 24

let fresh_hamiltonian r =
  let line j =
    let support = Array.init fresh_qubits Fun.id in
    Prng.shuffle r support;
    let s = Bytes.make fresh_qubits 'I' in
    for k = 0 to 2 + (j mod 3) - 1 do
      Bytes.set s support.(k) "XYZ".[Prng.int r 3]
    done;
    Printf.sprintf "%.6f %s" (Prng.uniform r 0.1 1.0) (Bytes.to_string s)
  in
  String.concat "\n" (List.init fresh_terms line)

let theta r params = Array.init params (fun _ -> Prng.uniform r 0.1 3.0)

type request = { cls : cls; body : (string * Json.t) list (** without id *) }

(* Requests come in blocks of five — two hits and one of each other
   class, shuffled — so the 40/20/20/20 mix holds exactly in every
   prefix of whole blocks. *)
type stream = {
  req_rng : Prng.t;
  params : int;  (** parameters of the template workload *)
  mutable block : cls array;
  mutable pos : int;
  mutable hits : int;
  mutable routed : int;
}

let requests ~seed ~template_params =
  { req_rng = rng ~seed 2; params = template_params; block = [||]; pos = 0;
    hits = 0; routed = 0 }

let no_dump = ("dump", Json.Bool false)

let next_request st =
  if st.pos = Array.length st.block then begin
    st.block <- [| Hit; Hit; Fresh; Template; Routed |];
    Prng.shuffle st.req_rng st.block;
    st.pos <- 0
  end;
  let cls = st.block.(st.pos) in
  st.pos <- st.pos + 1;
  let body =
    match cls with
    | Hit ->
      st.hits <- st.hits + 1;
      [ ("workload", Json.Str hit_specs.((st.hits - 1) mod Array.length hit_specs));
        no_dump ]
    | Routed ->
      st.routed <- st.routed + 1;
      [ ("workload",
         Json.Str routed_specs.((st.routed - 1) mod Array.length routed_specs));
        ("topology", Json.Str "heavy-hex"); no_dump ]
    | Fresh -> [ ("hamiltonian", Json.Str (fresh_hamiltonian st.req_rng)); no_dump ]
    | Template ->
      [ ("workload", Json.Str template_spec); ("template", Json.Bool true);
        ( "binds",
          Json.Arr
            (List.init binds_per_template (fun _ ->
                 Json.Arr
                   (Array.to_list
                      (Array.map (fun x -> Json.Num x) (theta st.req_rng st.params))))) );
        no_dump ]
  in
  { cls; body }

let request_line ~id req = Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: req.body))

(* Open-loop send times: a Poisson process of [rate] per second over
   [seconds], as offsets from the phase start. *)
let arrivals ~seed ~rate ~seconds =
  let r = rng ~seed 3 in
  let rec go t acc =
    let t = t -. (log (1.0 -. Prng.float r 1.0) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

(* --- vqe-bind ----------------------------------------------------------- *)

let theta_stream ~seed = rng ~seed 4
