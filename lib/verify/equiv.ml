module Circuit = Phoenix_circuit.Circuit
module Unitary = Phoenix_linalg.Unitary
module Fidelity = Phoenix_linalg.Fidelity

let unitary_check ?(tol = 1e-7) n gadgets circuit =
  if n > 12 then
    Error (Printf.sprintf "unitary check limited to 12 qubits, got %d" n)
  else if Circuit.num_qubits circuit <> n then
    Error
      (Printf.sprintf "circuit acts on %d qubits, program on %d"
         (Circuit.num_qubits circuit) n)
  else
    let reference = Unitary.program_unitary n gadgets in
    let actual = Unitary.circuit_unitary circuit in
    let infid = Fidelity.infidelity reference actual in
    if infid < tol then Ok ()
    else
      Error
        (Printf.sprintf "unitary mismatch: infidelity %.3e exceeds %.1e" infid
           tol)
