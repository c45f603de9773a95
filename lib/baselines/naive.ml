module Pass = Phoenix.Pass

let synth_pass =
  Pass.make ~certify:Phoenix.Passes.certify_preserving ~name:"synth"
    ~description:
      "per-gadget CNOT-ladder synthesis in program order (no grouping, no \
       cleanup)"
    (fun ctx ->
      {
        ctx with
        Pass.circuit =
          Phoenix.Synthesis.naive_gadget_circuit ctx.Pass.n ctx.Pass.gadgets;
      })

let passes = [ synth_pass ]
