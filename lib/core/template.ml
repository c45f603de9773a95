module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Angle = Phoenix_pauli.Angle

type t = Compiler.template

let num_qubits (t : t) = t.Compiler.t_n
let params (t : t) = Array.copy t.Compiler.t_params
let num_parameters (t : t) = Array.length t.Compiler.t_params
let slot_count (t : t) = t.Compiler.t_slot_count
let slot_sites (t : t) = Array.length t.Compiler.t_slot_positions
let report (t : t) = t.Compiler.t_report

let circuit (t : t) =
  Circuit.create t.Compiler.t_n (Array.to_list t.Compiler.t_prototype)

let check_arity ~op (t : t) theta =
  let arity = Array.length t.Compiler.t_params in
  if Array.length theta <> arity then
    invalid_arg
      (Printf.sprintf "Template.%s: %d value%s for %d parameter%s" op
         (Array.length theta)
         (if Array.length theta = 1 then "" else "s")
         arity
         (if arity = 1 then "" else "s"))

let bind_with_eval (t : t) eval =
  let gates = Array.copy t.Compiler.t_prototype in
  Array.iter
    (fun i -> gates.(i) <- Gate.map_angles eval gates.(i))
    t.Compiler.t_slot_positions;
  Circuit.of_validated t.Compiler.t_n (Array.to_list gates)

let bind (t : t) theta =
  check_arity ~op:"bind" t theta;
  (* [of_validated] inside [bind_with_eval]: the prototype passed
     [Circuit.create]'s register check when the template was built, and
     patching angles cannot move a gate's qubits — re-validating every
     bind would dominate its cost. *)
  bind_with_eval t (Angle.evaluator theta)

let bind_batch (t : t) thetas =
  List.iter (check_arity ~op:"bind_batch" t) thetas;
  let evals = Angle.evaluators (Array.of_list thetas) in
  List.mapi (fun k _ -> bind_with_eval t evals.(k)) thetas

let bind_with_trace (t : t) theta =
  let before = Pass.metrics_of (circuit t) in
  let c, seconds, alloc_words = Pass.measure (fun () -> bind t theta) in
  ( c,
    [
      {
        Pass.pass = "bind";
        seconds;
        alloc_words;
        before;
        after = Pass.metrics_of c;
      };
    ] )

let dump (t : t) =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "template on %d qubits: %d parameter%s, %d slot%s at %d gate site%s\n"
    t.Compiler.t_n (num_parameters t)
    (if num_parameters t = 1 then "" else "s")
    (slot_count t)
    (if slot_count t = 1 then "" else "s")
    (slot_sites t)
    (if slot_sites t = 1 then "" else "s");
  Array.iteri (fun k name -> p "  param %d: %s\n" k name) t.Compiler.t_params;
  (* One line per distinct slot, in first-appearance order, with its
     recorded expression over the parameters. *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      Gate.fold_angles
        (fun () theta ->
          match Angle.view theta with
          | Angle.Const _ -> ()
          | Angle.Slot { id; _ } ->
            if not (Hashtbl.mem seen id) then begin
              Hashtbl.add seen id ();
              p "  slot#%d = %s\n" id
                (Angle.describe (Angle.with_id ~negated:false id))
            end)
        () g)
    t.Compiler.t_prototype;
  p "circuit (%d gates):\n" (Array.length t.Compiler.t_prototype);
  Array.iter (fun g -> p "  %s\n" (Gate.to_string g)) t.Compiler.t_prototype;
  Buffer.contents buf
