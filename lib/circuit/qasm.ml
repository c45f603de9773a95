let gate_line register g =
  let q i = Printf.sprintf "%s[%d]" register i in
  match g with
  | Gate.G1 (k, i) ->
    let name =
      match k with
      | Gate.H -> "h"
      | Gate.S -> "s"
      | Gate.Sdg -> "sdg"
      | Gate.T -> "t"
      | Gate.Tdg -> "tdg"
      | Gate.X -> "x"
      | Gate.Y -> "y"
      | Gate.Z -> "z"
      | Gate.Rx t -> Printf.sprintf "rx(%.17g)" t
      | Gate.Ry t -> Printf.sprintf "ry(%.17g)" t
      | Gate.Rz t -> Printf.sprintf "rz(%.17g)" t
    in
    Printf.sprintf "%s %s;" name (q i)
  | Gate.Cnot (a, b) -> Printf.sprintf "cx %s,%s;" (q a) (q b)
  | Gate.Swap (a, b) -> Printf.sprintf "swap %s,%s;" (q a) (q b)
  | Gate.Cliff2 _ | Gate.Rpp _ | Gate.Su4 _ ->
    (* unreachable after lowering *)
    assert false

let to_string circuit =
  let lowered = Lowering.run [ Lowering.Rebase ] circuit in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\n";
  Buffer.add_string buf "include \"qelib1.inc\";\n";
  Buffer.add_string buf
    (Printf.sprintf "qreg q[%d];\n" (Circuit.num_qubits lowered));
  List.iter
    (fun g ->
      Buffer.add_string buf (gate_line "q" g);
      Buffer.add_char buf '\n')
    (Circuit.gates lowered);
  Buffer.contents buf

(* --- import --- *)

let fail line_no msg =
  invalid_arg (Printf.sprintf "Qasm.of_string: line %d: %s" line_no msg)

(* "q[3]" -> 3 *)
let parse_operand line_no s =
  let s = String.trim s in
  match String.index_opt s '[' with
  | Some i when String.length s > i + 1 && s.[String.length s - 1] = ']' ->
    (try int_of_string (String.sub s (i + 1) (String.length s - i - 2))
     with Failure _ -> fail line_no ("bad operand " ^ s))
  | _ -> fail line_no ("bad operand " ^ s)

let parse_angle line_no s =
  (* supports plain floats and the common "pi", "pi/2", "-pi/4", "2*pi"
     spellings *)
  let s = String.trim s in
  let pi = 4.0 *. Float.atan 1.0 in
  let parse_atom a =
    let a = String.trim a in
    if a = "pi" then pi
    else if a = "-pi" then -.pi
    else begin
      try float_of_string a with Failure _ -> fail line_no ("bad angle " ^ s)
    end
  in
  match String.index_opt s '/' with
  | Some i ->
    let num = String.sub s 0 i
    and den = String.sub s (i + 1) (String.length s - i - 1) in
    parse_atom num /. parse_atom den
  | None ->
    (match String.index_opt s '*' with
    | Some i ->
      let a = String.sub s 0 i
      and b = String.sub s (i + 1) (String.length s - i - 1) in
      parse_atom a *. parse_atom b
    | None -> parse_atom s)

let strip_comment line =
  let n = String.length line in
  let rec find i =
    if i + 1 >= n then None
    else if line.[i] = '/' && line.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub line 0 i | None -> line

let of_string text =
  let lines = String.split_on_char '\n' text in
  let n_qubits = ref 0 in
  let gates = ref [] in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      let line = strip_comment raw |> String.trim in
      let line =
        if String.length line > 0 && line.[String.length line - 1] = ';' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if line = "" then ()
      else if String.length line >= 8 && String.sub line 0 8 = "OPENQASM" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "include" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "barrier" then ()
      else if String.length line >= 4 && String.sub line 0 4 = "qreg" then begin
        match String.index_opt line '[' with
        | Some i ->
          let j =
            match String.index_from_opt line i ']' with
            | Some j -> j
            | None -> fail line_no "bad qreg"
          in
          n_qubits := int_of_string (String.sub line (i + 1) (j - i - 1))
        | None -> fail line_no "bad qreg"
      end
      else if String.length line >= 4 && String.sub line 0 4 = "creg" then ()
      else begin
        (* "name(args) ops" or "name ops" *)
        let name, rest =
          match String.index_opt line ' ' with
          | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
          | None -> fail line_no ("bad statement " ^ line)
        in
        let base, angle =
          match String.index_opt name '(' with
          | Some i ->
            let j =
              match String.index_from_opt name i ')' with
              | Some j -> j
              | None -> fail line_no "unclosed parenthesis"
            in
            ( String.sub name 0 i,
              Some (parse_angle line_no (String.sub name (i + 1) (j - i - 1))) )
          | None -> name, None
        in
        let operands =
          String.split_on_char ',' rest |> List.map (parse_operand line_no)
        in
        let g1 k =
          match operands with
          | [ q ] -> Gate.G1 (k, q)
          | _ -> fail line_no (base ^ " expects one operand")
        in
        let g2 make =
          match operands with
          | [ a; b ] -> make a b
          | _ -> fail line_no (base ^ " expects two operands")
        in
        let gate =
          match base, angle with
          | "h", None -> g1 Gate.H
          | "s", None -> g1 Gate.S
          | "sdg", None -> g1 Gate.Sdg
          | "t", None -> g1 Gate.T
          | "tdg", None -> g1 Gate.Tdg
          | "x", None -> g1 Gate.X
          | "y", None -> g1 Gate.Y
          | "z", None -> g1 Gate.Z
          | "rx", Some t -> g1 (Gate.Rx t)
          | "ry", Some t -> g1 (Gate.Ry t)
          | "rz", Some t -> g1 (Gate.Rz t)
          | "u1", Some t -> g1 (Gate.Rz t)
          | "cx", None -> g2 (fun a b -> Gate.Cnot (a, b))
          | "swap", None -> g2 (fun a b -> Gate.Swap (a, b))
          | _ -> fail line_no ("unsupported gate " ^ base)
        in
        gates := gate :: !gates
      end)
    lines;
  if !n_qubits = 0 then invalid_arg "Qasm.of_string: no qreg declaration";
  Circuit.create !n_qubits (List.rev !gates)
