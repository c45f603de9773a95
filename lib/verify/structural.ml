module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology

type isa = Cnot_basis | Su4_basis | Any_basis

type violation = { gate : int option; message : string }

let rec su4_parts_on a b parts =
  List.for_all
    (fun g ->
      List.for_all (fun q -> q = a || q = b) (Gate.qubits g)
      &&
      match g with
      | Gate.Su4 { a = a'; b = b'; parts = parts' } -> su4_parts_on a' b' parts'
      | _ -> true)
    parts

let isa_violations ~isa circuit =
  let n = Circuit.num_qubits circuit in
  let vs = ref [] in
  let add i fmt =
    Printf.ksprintf (fun message -> vs := { gate = Some i; message } :: !vs) fmt
  in
  List.iteri
    (fun i g ->
      let qs = Gate.qubits g in
      List.iter
        (fun q ->
          if q < 0 || q >= n then
            add i "%s touches qubit %d outside [0, %d)" (Gate.to_string g) q n)
        qs;
      (match qs with
      | [ a; b ] when a = b ->
        add i "%s has coincident operands" (Gate.to_string g)
      | _ -> ());
      (match g with
      | Gate.Su4 { a; b; parts } when not (su4_parts_on a b parts) ->
        add i "SU(4) block has parts outside its qubit pair (%d,%d)" a b
      | _ -> ());
      match isa, g with
      | Cnot_basis, (Gate.G1 _ | Gate.Cnot _) -> ()
      | Cnot_basis, _ ->
        add i "%s is outside the CNOT ISA alphabet" (Gate.to_string g)
      | Su4_basis, (Gate.G1 _ | Gate.Su4 _) -> ()
      | Su4_basis, _ ->
        add i "%s is outside the SU(4) ISA alphabet" (Gate.to_string g)
      | Any_basis, _ -> ())
    (Circuit.gates circuit);
  List.rev !vs

let coupling_violations topo circuit =
  let n = Circuit.num_qubits circuit and dev = Topology.num_qubits topo in
  let vs = ref [] in
  let add gate fmt =
    Printf.ksprintf (fun message -> vs := { gate; message } :: !vs) fmt
  in
  if n > dev then add None "circuit has %d qubits but the device only %d" n dev;
  List.iteri
    (fun i g ->
      match Gate.pair g with
      | Some (a, b)
        when a >= 0 && b >= 0 && a < dev && b < dev
             && not (Topology.are_adjacent topo a b) ->
        add (Some i) "%s acts on non-adjacent physical qubits (%d,%d)"
          (Gate.to_string g) a b
      | _ -> ())
    (Circuit.gates circuit);
  List.rev !vs

let max_reported = 20

let validate ?(isa = Any_basis) ?topology circuit =
  (* In circuit order: the device-size violation first, then each gate's
     ISA violations before its coupling one. *)
  let all =
    List.stable_sort
      (fun u v -> Option.compare Int.compare u.gate v.gate)
      (isa_violations ~isa circuit
      @ Option.fold ~none:[] ~some:(fun t -> coupling_violations t circuit)
          topology)
  in
  let diag m = Diag.make ~pass:"structural" Diag.Error m in
  let shown =
    List.filteri (fun i _ -> i < max_reported) all
    |> List.map (fun v ->
           diag
             (match v.gate with
             | Some i -> Printf.sprintf "gate #%d %s" i v.message
             | None -> v.message))
  in
  let extra = List.length all - max_reported in
  if extra > 0 then
    shown @ [ diag (Printf.sprintf "… and %d more structural violations" extra) ]
  else shown
