module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Passes = Phoenix.Passes
module Hamiltonian = Phoenix_ham.Hamiltonian

type entry = {
  name : string;
  description : string;
  passes : Compiler.options -> Pass.t list;
  requires_topology : bool;
  two_local_only : bool;
  uses_blocks : bool;
}

(* The tail every logical-level baseline shares: rebase to the target
   ISA (the identity for already-CNOT circuits under [Cnot_isa]), or —
   on hardware targets — SABRE routing plus physical lowering; then the
   structural validator when verification was requested. *)
let baseline_tail (options : Compiler.options) =
  (match options.Compiler.target with
  | Compiler.Hardware _ -> [ Passes.route_sabre; Passes.lower_routed ]
  | Compiler.Logical -> [ Passes.rebase ])
  @ (if options.Compiler.verify then [ Passes.verify_structural ] else [])

let phoenix =
  {
    name = "phoenix";
    description =
      "the PHOENIX pipeline: IR grouping, BSF simplification, Tetris-like \
       ordering, ISA lowering, hardware-aware routing";
    passes = (fun options -> Compiler.passes options);
    requires_topology = false;
    two_local_only = false;
    uses_blocks = true;
  }

let tket =
  {
    name = "tket";
    description =
      "TKET-like: commuting-set partition, simultaneous diagonalization, \
       sorted phase ladders, peephole";
    passes = (fun options -> Phoenix_baselines.Tket_like.passes @ baseline_tail options);
    requires_topology = false;
    two_local_only = false;
    uses_blocks = false;
  }

let paulihedral =
  {
    name = "paulihedral";
    description =
      "Paulihedral-like: support-keyed blocks chained by overlap, \
       block-local ladder synthesis, peephole";
    passes =
      (fun options ->
        Phoenix_baselines.Paulihedral_like.passes @ baseline_tail options);
    requires_topology = false;
    two_local_only = false;
    uses_blocks = false;
  }

let tetris =
  {
    name = "tetris";
    description =
      "Tetris-like: blocks ordered by boundary cancellation \
       compatibility, Z-first ladders, peephole";
    passes =
      (fun options ->
        Phoenix_baselines.Tetris_like.passes @ baseline_tail options);
    requires_topology = false;
    two_local_only = false;
    uses_blocks = false;
  }

let qan2 =
  {
    name = "2qan";
    description =
      "2QAN-like: interaction-weighted placement and greedy \
       commuting-interaction routing for 2-local programs";
    passes =
      (fun options ->
        Phoenix_baselines.Qan2_like.passes
        @ (if options.Compiler.verify then [ Passes.verify_structural ] else []));
    requires_topology = true;
    two_local_only = true;
    uses_blocks = false;
  }

let naive =
  {
    name = "naive";
    description =
      "textbook per-gadget CNOT-ladder synthesis in program order (the \
       \"original circuit\" of the paper's tables)";
    passes = (fun options -> Phoenix_baselines.Naive.passes @ baseline_tail options);
    requires_topology = false;
    two_local_only = false;
    uses_blocks = false;
  }

let all = [ phoenix; tket; paulihedral; tetris; qan2; naive ]

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

(* --- running a registered pipeline ------------------------------------ *)

let program ?(tau = 1.0) entry h =
  match (if entry.uses_blocks then Hamiltonian.gadget_blocks ~tau h else None)
  with
  | Some blocks -> Compiler.chunk_of_blocks blocks
  | None -> Compiler.chunk_of_gadgets (Hamiltonian.trotter_gadgets ~tau h)

let compile_program ?(options = Compiler.default_options) ?protect ?hooks
    entry n (p : Compiler.chunk) =
  Compiler.run_passes ?protect ?hooks (entry.passes options)
    (Pass.init ~gadgets:p.Compiler.chunk_gadgets
       ?term_blocks:p.Compiler.chunk_blocks options n)

let compile_gadgets ?options ?protect ?hooks entry n gadgets =
  compile_program ?options ?protect ?hooks entry n
    (Compiler.chunk_of_gadgets gadgets)

let compile_blocks ?options ?protect ?hooks entry n blocks =
  compile_program ?options ?protect ?hooks entry n
    (Compiler.chunk_of_blocks blocks)

let compile ?(options = Compiler.default_options) ?protect ?hooks entry h =
  compile_program ~options ?protect ?hooks entry (Hamiltonian.num_qubits h)
    (program ~tau:options.Compiler.tau entry h)

(* --- streaming compilation -------------------------------------------- *)

let compile_stream ?(options = Compiler.default_options) ?protect ?hooks
    ?keep_circuit ?emit ~steps entry h =
  if steps < 1 then
    invalid_arg "Registry.compile_stream: steps must be positive";
  let chunk = program ~tau:options.Compiler.tau entry h in
  Compiler.compile_stream ~options ?protect ?hooks ?keep_circuit ?emit
    ~pipeline:entry.passes (Hamiltonian.num_qubits h)
    (Seq.init steps (fun _ -> chunk))

(* --- parametric compilation ------------------------------------------- *)

(* Only PHOENIX owns the slot-aware pipeline ([Compiler.passes] +
   [parametrize]); the baselines replay their references' concrete-angle
   algorithms, so templating them would silently change what is being
   benchmarked.  [uses_blocks] is the discriminator: it marks the one
   entry whose pipeline is the canonical compiler. *)
let compile_template ?(options = Compiler.default_options) ?protect ?hooks
    ?certified entry h =
  if not entry.uses_blocks then
    Error
      (Printf.sprintf
         "pipeline '%s' has no parametric-template support (only the \
          canonical phoenix pipeline compiles symbolic angles)"
         entry.name)
  else begin
    let n = Hamiltonian.num_qubits h in
    (* One parameter per algorithm-level block (or per Trotter gadget
       when the Hamiltonian records no blocks), scaling the block's
       tau-scaled base angles: binding every parameter to 1.0 replays
       [compile] at the same options bit-identically. *)
    let tau = options.Compiler.tau in
    let blocks =
      match Hamiltonian.gadget_blocks ~tau h with
      | Some blocks -> blocks
      | None -> List.map (fun g -> [ g ]) (Hamiltonian.trotter_gadgets ~tau h)
    in
    let symbolic =
      List.mapi
        (fun k block ->
          List.map
            (fun (p, base) ->
              (p, Phoenix_pauli.Angle.param ~index:k ~scale:base))
            block)
        blocks
    in
    let params =
      Array.init (List.length blocks) (Printf.sprintf "theta%d")
    in
    Ok
      (Compiler.compile_template ~options ?protect ?hooks ?certified ~params n
         symbolic)
  end

(* --- the pass catalog -------------------------------------------------- *)

type catalog_entry = {
  pass_name : string;
  pass_description : string;
  pipelines : string list;  (** registry names of the pipelines using it *)
}

(* Representative options that exercise the longest variant of every
   pipeline: hardware target (routing present), verification on,
   non-exact (ordering present). *)
let catalog () =
  let repr =
    {
      Compiler.default_options with
      Compiler.target = Compiler.Hardware (Phoenix_topology.Topology.line 4);
      Compiler.verify = true;
    }
  in
  let table : (string * string, string list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun (p : Pass.t) ->
          let key = (p.Pass.name, p.Pass.description) in
          match Hashtbl.find_opt table key with
          | Some users -> if not (List.mem e.name !users) then users := e.name :: !users
          | None ->
            Hashtbl.add table key (ref [ e.name ]);
            order := key :: !order)
        (e.passes repr))
    all;
  List.rev_map
    (fun ((name, description) as key) ->
      {
        pass_name = name;
        pass_description = description;
        pipelines = List.rev !(Hashtbl.find table key);
      })
    !order
