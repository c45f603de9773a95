module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Lowering = Phoenix_circuit.Lowering
module Topology = Phoenix_topology.Topology
module Structural = Phoenix_verify.Structural

type isa = Structural.isa = Cnot_basis | Su4_basis | Any_basis

type declared = { two_q : int; depth_2q : int; one_q : int }

type target = {
  circuit : Circuit.t;
  isa : isa;
  topology : Topology.t option;
  declared : declared option;
  program : (int * (Phoenix_pauli.Pauli_string.t * float) list) option;
  exact : bool;
  layout : Phoenix_router.Layout.t option;
}

let target ?(isa = Any_basis) ?topology ?declared ?program ?(exact = false)
    ?layout circuit =
  { circuit; isa; topology; declared; program; exact; layout }

(* --- qubit liveness ----------------------------------------------------- *)

(* A declared-but-untouched wire in a logical circuit means the compiler
   lost (or never emitted) part of the program.  On a hardware target the
   register is the whole device, so idle physical qubits are expected and
   the analysis is skipped. *)
let liveness t =
  match t.topology with
  | Some _ -> []
  | None ->
    let n = Circuit.num_qubits t.circuit in
    let used = Array.make n false in
    List.iter
      (fun g ->
        List.iter
          (fun q -> if q >= 0 && q < n then used.(q) <- true)
          (Gate.qubits g))
      (Circuit.gates t.circuit);
    let fs = ref [] in
    for q = n - 1 downto 0 do
      if not used.(q) then
        fs :=
          Finding.warning ~location:(Finding.Qubit q) ~analysis:"liveness"
            "declared but never touched by any gate (dangling wire)"
          :: !fs
    done;
    !fs

(* --- ISA gate-set and coupling-map conformance ----------------------------

   [Structural] owns the rules; these analyses render its violations as
   findings located at their gate. *)

let conformance_findings ~analysis violations =
  List.map
    (fun { Structural.gate; message } ->
      Finding.make
        ?location:(Option.map (fun i -> Finding.Gate i) gate)
        ~analysis Error message)
    violations

let isa_conformance t =
  conformance_findings ~analysis:"isa-conformance"
    (Structural.isa_violations ~isa:t.isa t.circuit)

let coupling_conformance t =
  match t.topology with
  | None -> []
  | Some topo ->
    conformance_findings ~analysis:"coupling-conformance"
      (Structural.coupling_violations topo t.circuit)

(* --- declared-vs-recomputed metric certification ------------------------ *)

let metrics_certification t =
  match t.declared with
  | None -> []
  | Some d ->
    let analysis = "metrics-certification" in
    let check what declared actual acc =
      if declared <> actual then
        Finding.error ~analysis "declared %s %d, recomputed %d from the circuit"
          what declared actual
        :: acc
      else acc
    in
    []
    |> check "2Q count" d.two_q (Circuit.count_2q t.circuit)
    |> check "2Q depth" d.depth_2q (Circuit.depth_2q t.circuit)
    |> check "1Q count" d.one_q (Circuit.count_1q t.circuit)
    |> List.rev

(* --- layer consistency --------------------------------------------------

   Audits [Circuit.layers_2q] — the schedule every depth metric and the
   ordering pass trust — against its own contract: layers partition the
   2Q gates, no layer reuses a qubit, the layer count equals the 2Q
   depth, and per-qubit program order is preserved. *)

let layer_consistency t =
  let analysis = "layer-consistency" in
  let c = t.circuit in
  let layers = Circuit.layers_2q c in
  let fs = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun m -> fs := Finding.make ~analysis Error m :: !fs)
      fmt
  in
  List.iteri
    (fun li layer ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun g ->
          List.iter
            (fun q ->
              if Hashtbl.mem seen q then
                err "layer %d schedules qubit %d twice" li q
              else Hashtbl.add seen q ())
            (Gate.qubits g))
        layer)
    layers;
  let flat = List.concat layers in
  let n2q = Circuit.count_2q c in
  if List.length flat <> n2q then
    err "layering holds %d 2Q gates, the circuit has %d" (List.length flat) n2q;
  if List.length layers <> Circuit.depth_2q c then
    err "layer count %d disagrees with 2Q depth %d" (List.length layers)
      (Circuit.depth_2q c);
  let program_2q = List.filter Gate.is_two_qubit (Circuit.gates c) in
  for q = 0 to Circuit.num_qubits c - 1 do
    let on_q gs = List.filter (fun g -> List.mem q (Gate.qubits g)) gs in
    let in_program = on_q program_2q and in_layers = on_q flat in
    if
      not
        (List.length in_program = List.length in_layers
        && List.for_all2 Gate.equal in_program in_layers)
    then
      fs :=
        Finding.error ~location:(Finding.Qubit q) ~analysis
          "2Q gates on this qubit are reordered by the layering"
        :: !fs
  done;
  List.rev !fs

(* --- angle sanity --------------------------------------------------------

   NaN/inf angles are hard errors: they poison every downstream metric
   and unitary.  Zero rotations and non-canonical angles are valid but
   mean the peephole left money on the table — the missed-optimization
   lint class. *)

let angle_sanity t =
  let analysis = "angle-sanity" in
  let fs = ref [] in
  (* Unbound slots are named by first-use rank (S0, S1, ...) so a
     finding reads stably across runs — arena ids depend on how many
     templates were compiled before this one.  Each slot errors once at
     its first use; a trailing summary counts the damage. *)
  let slot_rank : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let slot_sites = ref 0 in
  let check i what theta =
    if Phoenix_pauli.Angle.is_slot theta then begin
      (* A slot reaching the lint means the circuit was never bound —
         templates must go through [Template.bind] before certification. *)
      incr slot_sites;
      let id = Phoenix_pauli.Angle.slot_id theta in
      if not (Hashtbl.mem slot_rank id) then begin
        let rank = Hashtbl.length slot_rank in
        Hashtbl.add slot_rank id (rank, i);
        fs :=
          Finding.error ~location:(Finding.Gate i) ~analysis
            "%s has unbound slot S%d (angle %s): template parameter was \
             never bound"
            what rank
            (Phoenix_pauli.Angle.to_string theta)
          :: !fs
      end
    end
    else if not (Float.is_finite theta) then
      fs :=
        Finding.error ~location:(Finding.Gate i) ~analysis
          "%s has non-finite angle %h" what theta
        :: !fs
    else if Lowering.is_zero_angle theta then
      fs :=
        Finding.warning ~location:(Finding.Gate i) ~analysis
          "%s rotation by ≈0 survived peephole folding (missed optimization)"
          what
        :: !fs
    else begin
      let canon = Lowering.normalize_angle theta in
      if Float.abs (canon -. theta) > 1e-9 then
        fs :=
          Finding.warning ~location:(Finding.Gate i) ~analysis
            "%s angle %g is non-canonical (normalizes to %g)" what theta canon
          :: !fs
    end
  in
  let rec walk i g =
    match g with
    | Gate.G1 (Gate.Rx theta, _) -> check i "Rx" theta
    | Gate.G1 (Gate.Ry theta, _) -> check i "Ry" theta
    | Gate.G1 (Gate.Rz theta, _) -> check i "Rz" theta
    | Gate.Rpp { theta; _ } -> check i "Rpp" theta
    | Gate.Su4 { parts; _ } -> List.iter (walk i) parts
    | Gate.G1 _ | Gate.Cnot _ | Gate.Cliff2 _ | Gate.Swap _ -> ()
  in
  List.iteri walk (Circuit.gates t.circuit);
  if Hashtbl.length slot_rank > 0 then begin
    let first_uses =
      Hashtbl.fold (fun _ (rank, gate) acc -> (rank, gate) :: acc) slot_rank []
      |> List.sort compare
      |> List.map (fun (rank, gate) -> Printf.sprintf "S%d@%d" rank gate)
      |> String.concat ", "
    in
    fs :=
      Finding.error ~analysis
        "%d unbound slot%s across %d site%s (first uses: %s)"
        (Hashtbl.length slot_rank)
        (if Hashtbl.length slot_rank = 1 then "" else "s")
        !slot_sites
        (if !slot_sites = 1 then "" else "s")
        first_uses
      :: !fs
  end;
  List.rev !fs

(* --- symbolic translation validation -------------------------------------

   End-to-end check that the compiled circuit implements the gadget
   program it was compiled from, in the frame × phase-polynomial
   abstract domain ([Phoenix_verify.Checker]).  Simulation-free like
   every other registry analysis, and — unlike the dense verifier —
   sound on routed circuits (via the recorded layout) and on slotted
   templates. *)

let translation_validation t =
  let analysis = "translation-validation" in
  match t.program with
  | None -> []
  | Some (n, program) ->
    let l2p =
      Option.map
        (fun l ->
          Array.init
            (Phoenix_router.Layout.n_logical l)
            (Phoenix_router.Layout.physical_of l))
        t.layout
    in
    let relation = if t.exact then "sequence" else "multiset" in
    (match
       Phoenix_verify.Checker.check_program ~exact:t.exact ?l2p n program
         t.circuit
     with
    | Phoenix_verify.Checker.Proved ->
      [
        Finding.info ~analysis
          "%d-gadget program certified against the circuit (%s relation%s)"
          (List.length program) relation
          (match l2p with
          | Some _ -> ", relabeled through the routing layout"
          | None -> "");
      ]
    | Phoenix_verify.Checker.Plausible r ->
      [ Finding.warning ~analysis "not certified (checker out of domain): %s" r ]
    | Phoenix_verify.Checker.Refuted r ->
      [ Finding.error ~analysis "circuit does not implement the program: %s" r ])
