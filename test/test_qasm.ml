module Registry = Phoenix_pipeline.Registry
module Qasm = Phoenix_circuit.Qasm
module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Unitary = Helpers.Unitary

let h q = Gate.G1 (Gate.H, q)
let cnot a b = Gate.Cnot (a, b)

let test_export_header () =
  let text = Qasm.to_string (Circuit.create 2 [ h 0; cnot 0 1 ]) in
  Alcotest.(check bool) "openqasm" true
    (String.length text > 12 && String.sub text 0 12 = "OPENQASM 2.0");
  Alcotest.(check bool) "qreg" true
    (List.exists
       (fun l -> String.trim l = "qreg q[2];")
       (String.split_on_char '\n' text));
  Alcotest.(check bool) "h gate" true
    (List.exists (fun l -> String.trim l = "h q[0];") (String.split_on_char '\n' text))

let test_export_lowers_abstract_gates () =
  let c =
    Circuit.create 2
      [
        Gate.Cliff2 (Phoenix_pauli.Clifford2q.make Phoenix_pauli.Clifford2q.CXY 0 1);
        Gate.Rpp { p0 = Helpers.Pauli.Z; p1 = Helpers.Pauli.Z; a = 0; b = 1; theta = 0.5 };
      ]
  in
  let text = Qasm.to_string c in
  (* only basis gate names appear *)
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then
        Alcotest.(check bool)
          ("line ok: " ^ line)
          true
          (List.exists
             (fun prefix ->
               String.length line >= String.length prefix
               && String.sub line 0 (String.length prefix) = prefix)
             [ "OPENQASM"; "include"; "qreg"; "h "; "s "; "sdg "; "t "; "tdg ";
               "x "; "y "; "z "; "rx("; "ry("; "rz("; "cx " ]))
    (String.split_on_char '\n' text)

let roundtrip c =
  let c' = Qasm.of_string (Qasm.to_string c) in
  Helpers.unitary_equiv ~tol:1e-9
    (Unitary.circuit_unitary c)
    (Unitary.circuit_unitary c')

let test_roundtrip_simple () =
  Alcotest.(check bool) "bell" true
    (roundtrip (Circuit.create 2 [ h 0; cnot 0 1 ]));
  Alcotest.(check bool) "rotations" true
    (roundtrip
       (Circuit.create 2
          [ Gate.G1 (Gate.Rz 0.37, 0); Gate.G1 (Gate.Rx (-1.2), 1); cnot 1 0 ]))

let random_gate_gen n =
  let open QCheck2.Gen in
  let pairs =
    map
      (fun (a, d) ->
        let b = (a + 1 + d) mod n in
        a, b)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)))
  in
  oneof
    [
      map (fun q -> h q) (int_range 0 (n - 1));
      map (fun q -> Gate.G1 (Gate.S, q)) (int_range 0 (n - 1));
      map (fun q -> Gate.G1 (Gate.Tdg, q)) (int_range 0 (n - 1));
      map (fun (q, t) -> Gate.G1 (Gate.Ry t, q))
        (pair (int_range 0 (n - 1)) Helpers.angle_gen);
      map (fun (a, b) -> cnot a b) pairs;
      map (fun (a, b) -> Gate.Swap (a, b)) pairs;
      map
        (fun ((a, b), k) -> Gate.Cliff2 (Phoenix_pauli.Clifford2q.make k a b))
        (pair pairs (oneofl Phoenix_pauli.Clifford2q.all_kinds));
    ]

let prop_roundtrip =
  Helpers.qtest ~count:80 "qasm roundtrip preserves the unitary"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12) (random_gate_gen 3))
    (fun gates -> roundtrip (Circuit.create 3 gates))

(* Export is canonical: importing what we printed and printing again
   must reproduce the text byte for byte, and the imported circuit must
   lint clean in the CNOT basis (export lowers everything). *)
let roundtrip_fixed_point c =
  let text = Qasm.to_string c in
  let c' = Qasm.of_string text in
  let lint_ok =
    not
      (Phoenix_analysis.Finding.has_errors
         (Phoenix_analysis.Registry.run
            (Phoenix_analysis.Circuit_lint.target
               ~isa:Phoenix_analysis.Circuit_lint.Cnot_basis c')))
  in
  String.equal text (Qasm.to_string c') && lint_ok

let prop_roundtrip_fixed_point =
  Helpers.qtest ~count:80 "qasm export→import→export is a fixed point"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12) (random_gate_gen 3))
    (fun gates -> roundtrip_fixed_point (Circuit.create 3 gates))

let test_compiled_roundtrip_fixed_point () =
  let r =
    Registry.compile Registry.phoenix
      (Phoenix_ham.Spin_models.heisenberg_chain 5)
  in
  Alcotest.(check bool) "compiled circuit" true
    (roundtrip_fixed_point r.Phoenix.Compiler.circuit)

let test_parse_pi_forms () =
  let c =
    Qasm.of_string
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(pi/2) q[0];\nrx(-pi) q[0];\nry(2*pi) q[0];\n"
  in
  match Circuit.gates c with
  | [ Gate.G1 (Gate.Rz a, 0); Gate.G1 (Gate.Rx b, 0); Gate.G1 (Gate.Ry c', 0) ]
    ->
    let pi = 4.0 *. Float.atan 1.0 in
    Alcotest.(check (float 1e-12)) "pi/2" (pi /. 2.0) a;
    Alcotest.(check (float 1e-12)) "-pi" (-.pi) b;
    Alcotest.(check (float 1e-12)) "2*pi" (2.0 *. pi) c'
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_comments_and_barrier () =
  let c =
    Qasm.of_string
      "OPENQASM 2.0;\nqreg q[2]; // two qubits\n// a comment line\nbarrier q;\nh q[0];\ncx q[0],q[1];\n"
  in
  Alcotest.(check int) "two gates" 2 (Circuit.length c)

let test_parse_errors () =
  Alcotest.check_raises "no qreg" (Invalid_argument "Qasm.of_string: no qreg declaration")
    (fun () -> ignore (Qasm.of_string "OPENQASM 2.0;\nh q[0];\n"));
  (try
     ignore (Qasm.of_string "qreg q[2];\nccx q[0],q[1],q[0];\n");
     Alcotest.fail "should reject"
   with Invalid_argument msg ->
     Alcotest.(check bool) "mentions gate" true
       (String.length msg > 0))

let () =
  Alcotest.run "qasm"
    [
      ( "export",
        [
          Alcotest.test_case "header" `Quick test_export_header;
          Alcotest.test_case "lowers abstract" `Quick
            test_export_lowers_abstract_gates;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "simple" `Quick test_roundtrip_simple;
          prop_roundtrip;
          prop_roundtrip_fixed_point;
          Alcotest.test_case "compiled circuit fixed point" `Quick
            test_compiled_roundtrip_fixed_point;
        ] );
      ( "parse",
        [
          Alcotest.test_case "pi forms" `Quick test_parse_pi_forms;
          Alcotest.test_case "comments/barrier" `Quick
            test_parse_comments_and_barrier;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
    ]
