(* Shared test utilities: qcheck generators for Pauli data and unitary
   comparison shortcuts. *)

module Pauli = Phoenix_pauli.Pauli
module Pauli_string = Phoenix_pauli.Pauli_string
module Clifford2q = Phoenix_pauli.Clifford2q
module Bsf = Phoenix_pauli.Bsf
module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Cmat = Phoenix_linalg.Cmat
module Unitary = Phoenix_linalg.Unitary
module Fidelity = Phoenix_linalg.Fidelity

let pauli_gen = QCheck2.Gen.oneofl [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]

let pauli_string_gen n =
  QCheck2.Gen.map Pauli_string.of_list (QCheck2.Gen.list_size (QCheck2.Gen.return n) pauli_gen)

(* Non-identity Pauli strings only. *)
let nontrivial_pauli_string_gen n =
  QCheck2.Gen.map
    (fun (p, q, rest) ->
      let s = Pauli_string.of_list rest in
      if Pauli_string.is_identity s then Pauli_string.set s q p else s)
    (QCheck2.Gen.triple
       (QCheck2.Gen.oneofl [ Pauli.X; Pauli.Y; Pauli.Z ])
       (QCheck2.Gen.int_range 0 (n - 1))
       (QCheck2.Gen.list_size (QCheck2.Gen.return n) pauli_gen))

let clifford2q_gen n =
  let open QCheck2.Gen in
  let* kind = oneofl Clifford2q.all_kinds in
  let* a = int_range 0 (n - 1) in
  let* b = int_range 0 (n - 2) in
  let b = if b >= a then b + 1 else b in
  return (Clifford2q.make kind a b)

let angle_gen = QCheck2.Gen.float_range (-3.0) 3.0

let terms_gen n max_terms =
  let open QCheck2.Gen in
  let* len = int_range 1 max_terms in
  list_size (return len) (pair (nontrivial_pauli_string_gen n) angle_gen)

(* A group relabelled onto its support, as the simplify pass does it:
   the ascending qubits the terms touch, and the terms restricted to
   them (local qubit [i] is register qubit [sites.(i)]). *)
let on_support n terms =
  let support = Phoenix_util.Bitvec.create n in
  List.iter
    (fun (p, _) -> Phoenix_util.Bitvec.or_into support (Pauli_string.support p))
    terms;
  let sites = Array.of_list (Phoenix_util.Bitvec.indices support) in
  (sites, List.map (fun (p, a) -> (Pauli_string.restrict p sites, a)) terms)

(* The inverse direction: a local string or circuit placed on an
   [n]-qubit register at [sites]. *)
let embed_string n sites p =
  let out = ref (Pauli_string.identity n) in
  Array.iteri (fun i q -> out := Pauli_string.set !out q (Pauli_string.get p i)) sites;
  !out

let embed_circuit n sites c =
  Circuit.create n (List.map (Gate.map_qubits (Array.get sites)) (Circuit.gates c))

(* Dense unitary of a Clifford2q gate embedded in n qubits. *)
let clifford2q_unitary n (c : Clifford2q.t) =
  let u = Cmat.identity (1 lsl n) in
  Unitary.apply_gate u n (Gate.Cliff2 c);
  u

let unitary_equiv ?(tol = 1e-8) u v = Fidelity.infidelity u v < tol

let check_equiv ?tol msg u v =
  Alcotest.(check bool) msg true (unitary_equiv ?tol u v)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
