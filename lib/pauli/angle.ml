(* Symbolic rotation angles, NaN-boxed into ordinary floats.

   Encoding: a slot is a quiet NaN whose high 32 bits (minus the sign)
   are the fixed tag below and whose low 32 bits are an index into the
   process-wide expression arena.  The sign bit carries negation, so
   [neg] on a slot is an exact bit flip that never touches the payload.
   The tag keeps well clear of every NaN the platform produces
   (0x7FF8_0000_0000_0000 and friends), so plain [Float.nan] — and any
   NaN produced by arithmetic on slots, which the invariant in the .mli
   forbids anyway — is classified as a const. *)

type view = Const of float | Slot of { id : int; negated : bool }

let hi_mask = 0x7FFF_FFFF_0000_0000L
let hi_tag = 0x7FFD_1C75_0000_0000L

let[@inline] is_slot f = Int64.equal (Int64.logand (Int64.bits_of_float f) hi_mask) hi_tag

let with_id ~negated id =
  if id < 0 || id > 0xFFFF_FFFF then
    invalid_arg (Printf.sprintf "Angle.with_id: id %d out of range" id);
  let bits = Int64.logor hi_tag (Int64.of_int id) in
  let bits = if negated then Int64.logor bits Int64.min_int else bits in
  Int64.float_of_bits bits

let view f =
  let bits = Int64.bits_of_float f in
  if Int64.equal (Int64.logand bits hi_mask) hi_tag then
    Slot
      {
        id = Int64.to_int (Int64.logand bits 0xFFFF_FFFFL);
        negated = Int64.compare bits 0L < 0;
      }
  else Const f

let slot_id f =
  match view f with
  | Slot { id; _ } -> id
  | Const _ -> invalid_arg "Angle.slot_id: not a slot"

(* Expression arena.  Arguments reference other arena nodes (or literal
   consts); nodes record the float operation the concrete pipeline would
   have performed, with evaluation replaying the identical IEEE ops in
   the identical order so that bind ≡ compile bit-for-bit. *)

type arg = Lit of float | Ref of { id : int; negated : bool }

type node =
  | Param of { index : int; scale : float } (* theta.(index) *. scale *)
  | Sum of arg * arg (* eval l +. eval r *)
  | Norm of arg (* normalize_const (eval a) *)

let lock = Mutex.create ()
let store = ref (Array.make 64 (Param { index = 0; scale = 0.0 }))
let count = ref 0

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let alloc node =
  with_lock (fun () ->
      let n = !count in
      if n > 0xFFFF_FFFF then failwith "Angle: expression arena exhausted";
      let cap = Array.length !store in
      if n = cap then begin
        let bigger = Array.make (2 * cap) node in
        Array.blit !store 0 bigger 0 cap;
        store := bigger
      end;
      !store.(n) <- node;
      count := n + 1;
      n)

let arena_size () = with_lock (fun () -> !count)

let get id =
  with_lock (fun () ->
      if id < 0 || id >= !count then
        invalid_arg
          (Printf.sprintf "Angle: unknown slot id %d (arena holds %d)" id !count);
      !store.(id))

let known f =
  match view f with
  | Const _ -> true
  | Slot { id; _ } -> id >= 0 && id < arena_size ()

let arg_of f =
  match view f with
  | Const c -> Lit c
  | Slot { id; negated } -> Ref { id; negated }

let param ~index ~scale =
  if index < 0 then invalid_arg "Angle.param: negative parameter index";
  with_id ~negated:false (alloc (Param { index; scale }))

let neg f =
  match view f with
  | Const c -> -.c
  | Slot { id; negated } -> with_id ~negated:(not negated) id

let add a b =
  if is_slot a || is_slot b then
    with_id ~negated:false (alloc (Sum (arg_of a, arg_of b)))
  else a +. b

(* Bit-for-bit the peephole's historical [normalize_angle]: reduce into
   (−2π, 2π], preserving the sign of small angles. *)
let two_pi = 2.0 *. Float.pi
let four_pi = 4.0 *. Float.pi

let[@inline] normalize_const t =
  let t = Float.rem t four_pi in
  let t = if t > two_pi then t -. four_pi else t in
  if t <= -.two_pi then t +. four_pi else t

let normalize f =
  if is_slot f then with_id ~negated:false (alloc (Norm (arg_of f)))
  else normalize_const f

let merge_norm a b =
  if is_slot a || is_slot b then begin
    let sum = alloc (Sum (arg_of a, arg_of b)) in
    with_id ~negated:false (alloc (Norm (Ref { id = sum; negated = false })))
  end
  else normalize_const (a +. b)

exception Unbound_parameter of int

(* One snapshot, many sites: the arena is append-only and published
   nodes are never mutated, so a (store, count) pair read under the lock
   stays valid for lock-free indexing afterwards (growth replaces the
   array, leaving the snapshot's prefix intact).  A bind patches
   hundreds of slot sites; taking the mutex once instead of per node
   keeps the per-site cost in nanoseconds. *)
let evaluator_of_snapshot (store, count) theta =
  let node id =
    if id < 0 || id >= count then
      invalid_arg
        (Printf.sprintf "Angle: unknown slot id %d (arena holds %d)" id count);
    store.(id)
  in
  let rec eval_id id =
    match node id with
    | Param { index; scale } ->
        if index >= Array.length theta then raise (Unbound_parameter index);
        theta.(index) *. scale
    | Sum (l, r) -> eval_arg l +. eval_arg r
    | Norm a -> normalize_const (eval_arg a)
  and eval_arg = function
    | Lit c -> c
    | Ref { id; negated } ->
        let v = eval_id id in
        if negated then -.v else v
  in
  fun f ->
    match view f with
    | Const c -> c
    | Slot { id; negated } ->
        let v = eval_id id in
        if negated then -.v else v

let evaluator theta =
  evaluator_of_snapshot (with_lock (fun () -> (!store, !count))) theta

let evaluators thetas =
  let snapshot = with_lock (fun () -> (!store, !count)) in
  Array.map (evaluator_of_snapshot snapshot) thetas

let eval theta f = evaluator theta f

let max_param_index f =
  let rec of_id id =
    match get id with
    | Param { index; _ } -> index
    | Sum (l, r) -> max (of_arg l) (of_arg r)
    | Norm a -> of_arg a
  and of_arg = function Lit _ -> -1 | Ref { id; _ } -> of_id id in
  match view f with Const _ -> -1 | Slot { id; _ } -> of_id id

let describe f =
  let buf = Buffer.create 32 in
  let rec go_id id =
    match get id with
    | Param { index; scale } ->
        if scale = 1.0 then Buffer.add_string buf (Printf.sprintf "\xce\xb8[%d]" index)
        else Buffer.add_string buf (Printf.sprintf "\xce\xb8[%d]*%g" index scale)
    | Sum (l, r) ->
        go_arg l;
        Buffer.add_string buf " + ";
        go_arg r
    | Norm a ->
        Buffer.add_string buf "norm(";
        go_arg a;
        Buffer.add_char buf ')'
  and go_arg = function
    | Lit c -> Buffer.add_string buf (Printf.sprintf "%g" c)
    | Ref { id; negated } ->
        if negated then Buffer.add_string buf "-(";
        go_id id;
        if negated then Buffer.add_char buf ')'
  in
  match view f with
  | Const c -> Printf.sprintf "%g" c
  | Slot { id; negated } ->
      if negated then Buffer.add_string buf "-(";
      (if known f then go_id id
       else Buffer.add_string buf (Printf.sprintf "slot#%d?" id));
      if negated then Buffer.add_char buf ')';
      Buffer.contents buf

let to_string f =
  match view f with
  | Const c -> Printf.sprintf "%g" c
  | Slot { id; negated } ->
      Printf.sprintf "%sslot#%d" (if negated then "-" else "") id

(* Structural linearization.  Every arena expression is affine in the
   parameter vector: Param contributes scale to one coefficient, Sum
   distributes, and Norm is dropped because range reduction subtracts a
   multiple of 4π and exp(-i(x - 4πk)/2 σ) = exp(-ix/2 σ) exactly for
   any Pauli σ — so as a rotation generator, norm(x) ≡ x for every
   binding.  The resulting canonical form supports the structural
   equality the translation validator needs: θ/2 + θ/2 and θ linearize
   identically, independent of any sampled value. *)

type linear = { coeffs : (int * float) list; const : float }

let linear_zero = { coeffs = []; const = 0.0 }

let linearize f =
  match view f with
  | Const c -> { coeffs = []; const = c }
  | Slot { id = root; negated } ->
      let store, count = with_lock (fun () -> (!store, !count)) in
      let node id =
        if id < 0 || id >= count then
          invalid_arg
            (Printf.sprintf "Angle: unknown slot id %d (arena holds %d)" id
               count);
        store.(id)
      in
      let tbl = Hashtbl.create 8 in
      let const = ref 0.0 in
      let rec go_id s id =
        match node id with
        | Param { index; scale } ->
            let prev =
              match Hashtbl.find_opt tbl index with Some c -> c | None -> 0.0
            in
            Hashtbl.replace tbl index (prev +. (s *. scale))
        | Sum (l, r) ->
            go_arg s l;
            go_arg s r
        | Norm a -> go_arg s a
      and go_arg s = function
        | Lit c -> const := !const +. (s *. c)
        | Ref { id; negated } -> go_id (if negated then -.s else s) id
      in
      go_id (if negated then -1.0 else 1.0) root;
      let coeffs =
        Hashtbl.fold (fun i c acc -> if c = 0.0 then acc else (i, c) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      in
      { coeffs; const = !const }

let linear_neg l =
  {
    coeffs = List.map (fun (i, c) -> (i, -.c)) l.coeffs;
    const = -.l.const;
  }

let linear_add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (i, c) :: xs', (j, d) :: ys' ->
        if i < j then (i, c) :: merge xs' ys
        else if j < i then (j, d) :: merge xs ys'
        else
          let s = c +. d in
          if s = 0.0 then merge xs' ys' else (i, s) :: merge xs' ys'
  in
  { coeffs = merge a.coeffs b.coeffs; const = a.const +. b.const }

(* Distance of [d] from the nearest multiple of [modulo]; NaN stays NaN
   so comparisons against a tolerance fail (never silently equal). *)
let mod_dist ~modulo d =
  let r = Float.abs (Float.rem d modulo) in
  Float.min r (modulo -. r)

let coeffs_close ~tol a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], [] -> true
    | (_, c) :: xs', [] -> Float.abs c <= tol && go xs' []
    | [], (_, d) :: ys' -> Float.abs d <= tol && go [] ys'
    | (i, c) :: xs', (j, d) :: ys' ->
        if i < j then Float.abs c <= tol && go xs' ys
        else if j < i then Float.abs d <= tol && go xs ys'
        else
          let scale = Float.max 1.0 (Float.max (Float.abs c) (Float.abs d)) in
          Float.abs (c -. d) <= tol *. scale && go xs' ys'
  in
  go a b

let linear_equal ?(tol = 1e-9) ?modulo a b =
  coeffs_close ~tol a.coeffs b.coeffs
  &&
  let d = a.const -. b.const in
  match modulo with
  | None -> Float.abs d <= tol
  | Some m -> mod_dist ~modulo:m d <= tol

let linear_is_zero ?tol ?modulo l = linear_equal ?tol ?modulo l linear_zero

let linear_to_string l =
  let buf = Buffer.create 32 in
  List.iter
    (fun (i, c) ->
      if Buffer.length buf > 0 then Buffer.add_string buf " + ";
      if c = 1.0 then Buffer.add_string buf (Printf.sprintf "\xce\xb8[%d]" i)
      else Buffer.add_string buf (Printf.sprintf "%g*\xce\xb8[%d]" c i))
    l.coeffs;
  if Buffer.length buf = 0 then Buffer.add_string buf (Printf.sprintf "%g" l.const)
  else if l.const <> 0.0 then
    Buffer.add_string buf (Printf.sprintf " + %g" l.const);
  Buffer.contents buf
