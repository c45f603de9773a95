(* Differential harness for the content-addressed synthesis cache.

   The headline guarantee under test: cached and cold compilation are
   bit-identical — for the paper's preset workloads (pinned against the
   golden digests of test_pipeline.ml), for every registered pipeline,
   and for random gadget programs (qcheck).  Plus the addressing
   properties (digest invariant under gadget reordering and monotone
   relabelling, distinct for sign-flipped tableaux; synthesis on a
   group's support independent of where the support sits, which backs
   replay onto any support), disk-tier fault injection
   (truncated / bit-flipped / version-mismatched entries are skipped
   with a Warning diagnostic and self-heal), and LRU byte-budget
   enforcement under a seeded random workload. *)

module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Bsf = Helpers.Bsf
module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Cache = Phoenix_cache.Cache
module Compiler = Phoenix.Compiler
module Group = Phoenix.Group
module Synthesis = Phoenix.Synthesis
module Registry = Phoenix_pipeline.Registry
module Diag = Phoenix_verify.Diag
module Topology = Phoenix_topology.Topology

(* Every disk-tier test in this process runs against a private cache
   directory; the env var is set before any cache code reads it. *)
let cache_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phoenix-cache-test-%d" (Unix.getpid ()))
  in
  Unix.putenv "PHOENIX_CACHE_DIR" d;
  d

let fresh_cache () =
  ignore (Cache.Persist.clear ~dir:cache_dir ());
  Cache.clear_memory ();
  Cache.reset_stats ()

let digest c =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Gate.to_string (Circuit.gates c))))

let uccsd =
  lazy
    (let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
     Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
       b.Phoenix_ham.Molecules.spec)

let qaoa =
  lazy
    (Phoenix_ham.Qaoa.maxcut_cost
       (List.assoc "Reg3-16" (Phoenix_ham.Qaoa.benchmark_suite ())))

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "pipeline %S not registered" name

let opts ?(cache = Cache.Off) ?(exact = false) ?(verify = false) ?target ?isa
    () =
  {
    Compiler.default_options with
    cache;
    exact;
    verify;
    target = Option.value ~default:Compiler.Logical target;
    isa = Option.value ~default:Compiler.Cnot_isa isa;
  }

let with_cache cache o = { o with Compiler.cache }

(* --- cold vs. warm on the preset workloads (golden digests) ---------- *)

let preset_cases () =
  let hh = Topology.ibm_manhattan () in
  [
    "uccsd default", uccsd, opts (), "7d48fb3580566670e9c516844bd872e9";
    "uccsd exact", uccsd, opts ~exact:true (), "2653091b6f8d67a9652b7659c13a114e";
    "uccsd su4", uccsd, opts ~isa:Compiler.Su4_isa (), "a0d4a70295c4d7776227f594e5510949";
    ( "uccsd heavyhex",
      uccsd,
      opts ~target:(Compiler.Hardware hh) (),
      "57a7a78f231e6e15db126a62da89880c" );
    "qaoa default", qaoa, opts (), "af92c9b8ba1d6b29d8f558db7be67665";
    "qaoa exact", qaoa, opts ~exact:true (), "982c5d8dc8498f6d666ef2224fab3035";
    ( "qaoa heavyhex",
      qaoa,
      opts ~target:(Compiler.Hardware hh) (),
      "8c595a2b87bb915b30abf42915a52533" );
  ]

let test_warm_equals_cold_presets () =
  let phoenix = entry "phoenix" in
  List.iter
    (fun (name, h, o, md5) ->
      let h = Lazy.force h in
      Cache.clear_memory ();
      let cold = Registry.compile ~options:(with_cache Cache.Off o) phoenix h in
      Alcotest.(check string) (name ^ " cold golden") md5
        (digest cold.Compiler.circuit);
      Alcotest.(check int)
        (name ^ " off-tier counters silent")
        0
        (cold.Compiler.cache_stats.Cache.hits
        + cold.Compiler.cache_stats.Cache.misses);
      Cache.reset_stats ();
      let first = Registry.compile ~options:(with_cache Cache.Mem o) phoenix h in
      let warm = Registry.compile ~options:(with_cache Cache.Mem o) phoenix h in
      Alcotest.(check string) (name ^ " populate = cold") md5
        (digest first.Compiler.circuit);
      Alcotest.(check string) (name ^ " warm = cold") md5
        (digest warm.Compiler.circuit);
      let s = warm.Compiler.cache_stats in
      Alcotest.(check bool) (name ^ " warm hit") true (s.Cache.hits > 0);
      Alcotest.(check int) (name ^ " warm misses") 0 s.Cache.misses)
    (preset_cases ())

(* Every registered pipeline: cold, disk-populating and disk-warm runs
   (memory dropped in between, simulating a new process) agree bit for
   bit.  For the baselines the cache never engages — the counters must
   stay zero — and for phoenix the warm run must be served from disk. *)
let test_all_pipelines_disk_identical () =
  fresh_cache ();
  List.iter
    (fun (e : Registry.entry) ->
      let h, o =
        if e.Registry.name = "2qan" then
          ( Lazy.force qaoa,
            opts ~target:(Compiler.Hardware (Topology.line 16)) () )
        else (Lazy.force uccsd, opts ())
      in
      Cache.clear_memory ();
      let cold = Registry.compile ~options:(with_cache Cache.Off o) e h in
      let populate = Registry.compile ~options:(with_cache Cache.Disk o) e h in
      Cache.clear_memory ();
      Cache.reset_stats ();
      let warm = Registry.compile ~options:(with_cache Cache.Disk o) e h in
      let name = e.Registry.name in
      Alcotest.(check string) (name ^ " populate = cold")
        (digest cold.Compiler.circuit)
        (digest populate.Compiler.circuit);
      Alcotest.(check string) (name ^ " disk-warm = cold")
        (digest cold.Compiler.circuit)
        (digest warm.Compiler.circuit);
      let s = warm.Compiler.cache_stats in
      if name = "phoenix" then begin
        Alcotest.(check bool) (name ^ " disk hits") true (s.Cache.disk_hits > 0);
        Alcotest.(check int) (name ^ " no misses") 0 s.Cache.misses
      end
      else
        Alcotest.(check int) (name ^ " cache idle") 0
          (s.Cache.hits + s.Cache.misses))
    Registry.all

(* --- qcheck: addressing properties ----------------------------------- *)

let rotate l k =
  let arr = Array.of_list l in
  let len = Array.length arr in
  List.init len (fun i -> arr.((i + k) mod len))

let prop_digest_reorder_invariant =
  Helpers.qtest ~count:300 "digest invariant under gadget reordering"
    QCheck2.Gen.(pair (Helpers.terms_gen 5 8) (int_range 0 17))
    (fun (terms, k) ->
      let d1 = Bsf.canonical_digest (Bsf.of_terms 5 terms) in
      let d2 =
        Bsf.canonical_digest (Bsf.of_terms 5 (rotate (List.rev terms) k))
      in
      String.equal d1 d2)

let prop_digest_sign_flip_distinct =
  Helpers.qtest ~count:300 "digest distinct for sign-flipped tableaux"
    (Helpers.terms_gen 5 8)
    (fun terms ->
      let t = Bsf.of_terms 5 terms in
      let d1 = Bsf.canonical_digest t in
      Bsf.Testing.corrupt_sign t 0;
      not (String.equal d1 (Bsf.canonical_digest t)))

(* Monotone injections of a 4-qubit register into 10 qubits: gaps keep
   the image strictly increasing, the base shift moves the whole image. *)
let monotone_gen =
  let open QCheck2.Gen in
  map
    (fun (s, gaps) ->
      let sel = Array.make 4 0 in
      let pos = ref (s - 1) in
      List.iteri
        (fun i g ->
          pos := !pos + 1 + g;
          sel.(i) <- !pos)
        gaps;
      sel)
    (pair (int_range 0 2) (list_size (return 4) (int_range 0 1)))

let relabel sel p =
  List.fold_left
    (fun acc i -> Pauli_string.set acc sel.(i) (Pauli_string.get p i))
    (Pauli_string.identity 10)
    [ 0; 1; 2; 3 ]

(* The digest is relabel-invariant, and register-wide synthesis is
   equivariant under a monotone support relabelling within one
   bit-vector word (there [Pauli_string.compare] keeps its order). *)
let prop_relabel_equivariance =
  Helpers.qtest ~count:200
    "digest relabel-invariant, synthesis relabel-equivariant"
    QCheck2.Gen.(pair (Helpers.terms_gen 4 6) monotone_gen)
    (fun (terms, sel) ->
      let terms' = List.map (fun (p, a) -> (relabel sel p, a)) terms in
      let d = Bsf.canonical_digest (Bsf.of_terms 4 terms) in
      let d' = Bsf.canonical_digest (Bsf.of_terms 10 terms') in
      let c = Synthesis.group_circuit (Group.of_terms 4 terms) in
      let c' = Synthesis.group_circuit (Group.of_terms 10 terms') in
      let mapped =
        Circuit.map_qubits
          (fun q -> if q < 4 then sel.(q) else q)
          (Circuit.with_num_qubits 10 c)
      in
      String.equal d d' && Circuit.equal c' mapped)

(* --- keys and synthesis on the group's support ------------------------ *)

(* Ascending sites on a register of at most 200 qubits, often
   straddling the bit-vector word boundaries 61/62 and 123/124. *)
let sites_gen k =
  let open QCheck2.Gen in
  let* straddle = oneofl [ []; [ 61; 62 ]; [ 123; 124 ]; [ 60; 61; 62; 63 ] ] in
  let* extra = list_size (return k) (int_range 0 199) in
  let sites =
    match List.sort_uniq compare (straddle @ extra) with
    | l when List.length l >= k -> l
    | _ -> List.init k (fun i -> 60 + i)
  in
  let* start = int_range 0 (List.length sites - k) in
  return (Array.of_list (List.filteri (fun i _ -> i >= start && i < start + k) sites))

(* Ascending sites inside one bit-vector word of a 200-qubit register. *)
let word_sites_gen k =
  let open QCheck2.Gen in
  let* w = int_range 0 3 in
  let lo = 62 * w in
  let* perm = shuffle_l (List.init (min 199 (lo + 61) - lo + 1) (( + ) lo)) in
  return (Array.of_list (List.sort compare (List.filteri (fun i _ -> i < k) perm)))

(* Groups on k ≤ 4 local qubits placed at [sites_gen k], half of them
   pairwise commuting (Z strings under one basis change per qubit), so
   compressed cores of three or more rotations are common. *)
let local_group_gen sites_gen =
  let open QCheck2.Gen in
  let* k = int_range 2 4 in
  let* sites = sites_gen k in
  let* commuting = bool in
  let* terms =
    if not commuting then Helpers.terms_gen k 6
    else
      let* basis = list_size (return k) (oneofl [ Pauli.X; Pauli.Y; Pauli.Z ]) in
      let* masks = list_size (int_range 3 6) (int_range 1 ((1 lsl k) - 1)) in
      let* angles = list_size (return (List.length masks)) Helpers.angle_gen in
      return
        (List.map2
           (fun m a ->
             ( Pauli_string.of_list
                 (List.mapi
                    (fun q b -> if (m lsr q) land 1 = 1 then b else Pauli.I)
                    basis),
               a ))
           masks angles)
  in
  let* exact = bool in
  return (sites, terms, exact)

let place n sites0 terms =
  List.map (fun (p, a) -> (Helpers.embed_string n sites0 p, a)) terms

(* The simplify pass keys and synthesizes each group on its support and
   embeds the circuit.  When the support lies in one word, that is the
   register-wide synthesis bit for bit, and the key is the register-wide
   tableau's address. *)
let prop_support_synthesis_is_register_synthesis =
  Helpers.qtest ~count:300 "support synthesis = register synthesis inside one word"
    (local_group_gen word_sites_gen)
    (fun (sites0, terms0, exact) ->
      let n = 200 in
      let register = place n sites0 terms0 in
      let sites, local = Helpers.on_support n register in
      let k = Array.length sites in
      let key = Cache.key_of_terms ~exact k local in
      Circuit.equal
        (Helpers.embed_circuit n sites (Synthesis.support_circuit ~exact k local))
        (Synthesis.group_circuit ~exact (Group.of_terms n register))
      && String.equal (Cache.digest key) (Bsf.canonical_digest (Bsf.of_terms n register)))

(* The same local terms placed at two random layouts, often straddling
   a word boundary: the simplify pass gives each one the same k-qubit
   circuit, the support synthesis of the local terms, and the same key,
   so an entry stored by one replays bit-identically onto the other. *)
let prop_support_position_independent =
  Helpers.qtest ~count:300 "support synthesis and key independent of position"
    QCheck2.Gen.(
      let* sites_a, terms, exact = local_group_gen sites_gen in
      let* sites_b = sites_gen (Array.length sites_a) in
      return (sites_a, sites_b, terms, exact))
    (fun (sites_a, sites_b, terms, exact) ->
      let n = 200 in
      let options = { (opts ~exact ()) with Compiler.domains = 1 } in
      let simplify =
        List.find
          (fun p -> p.Phoenix.Pass.name = "simplify")
          (Compiler.passes ~with_grouping:false options)
      in
      let on_layout sites0 =
        let register = place n sites0 terms in
        let sites, local = Helpers.on_support n register in
        let k = Array.length sites in
        let ctx, _ =
          Phoenix.Pass.run [ simplify ]
            (Phoenix.Pass.init ~groups:[ Group.of_terms n register ] options n)
        in
        let rank = Array.make n (-1) in
        Array.iteri (fun i q -> rank.(q) <- i) sites;
        let circuit =
          match ctx.Phoenix.Pass.blocks with
          | [ b ] ->
            Circuit.create k
              (List.map (Gate.map_qubits (Array.get rank))
                 (Circuit.gates b.Phoenix.Order.circuit))
          | _ -> Alcotest.fail "one group, one block"
        in
        (circuit, Synthesis.support_circuit ~exact k local, Cache.key_of_terms ~exact k local)
      in
      let ca, sa, ka = on_layout sites_a and cb, _, kb = on_layout sites_b in
      Circuit.equal ca sa && Circuit.equal ca cb
      && String.equal (Cache.Testing.packed ka) (Cache.Testing.packed kb)
      && String.equal (Cache.digest ka) (Cache.digest kb))

(* --- packed keys against textual fingerprints ------------------------- *)

(* A group as the differential generates it: k qubits, the mode, and per
   row its Pauli letters and an angle that is a const or a slot given by
   its pattern index and sign.  [materialize] draws fresh arena slots
   every time, so two materializations of one spec share the first-use
   pattern under different slot ids. *)
type angle_spec = Const of float | Slot of int * bool

let spec_consts = [ 0.0; -0.0; 0.5; -0.5; 1.25; Float.pi ]

let group_spec_gen =
  let open QCheck2.Gen in
  let* k = int_range 1 70 in
  let* rows = int_range 1 8 in
  let* identity = frequency [ (1, return true); (9, return false) ] in
  let letter =
    frequency
      [ (4, return Pauli.I); (2, return Pauli.X); (2, return Pauli.Y); (2, return Pauli.Z) ]
  in
  let angle =
    frequency
      [
        (3, map (fun c -> Const c) (oneofl spec_consts));
        (2, map2 (fun i n -> Slot (i, n)) (int_range 0 3) bool);
      ]
  in
  let letters =
    if identity then return (List.init k (fun _ -> Pauli.I))
    else list_size (return k) letter
  in
  let* rows = list_size (return rows) (pair letters angle) in
  let* exact = bool in
  return (k, exact, rows)

(* Keys accept rows that touch every local qubit, or none; otherwise
   the columns no row touches are dropped first, as the simplify pass's
   relabel onto the support drops them. *)
let materialize (k, exact, rows) =
  let slots = Array.init 4 (fun i -> Phoenix_pauli.Angle.param ~index:i ~scale:1.0) in
  let angle = function
    | Const c -> c
    | Slot (i, negated) ->
      if negated then Phoenix_pauli.Angle.neg slots.(i) else slots.(i)
  in
  let used = Array.make k false in
  List.iter
    (fun (ls, _) -> List.iteri (fun q l -> if l <> Pauli.I then used.(q) <- true) ls)
    rows;
  let rows =
    if not (Array.exists Fun.id used) then rows
    else List.map (fun (ls, a) -> (List.filteri (fun q _ -> used.(q)) ls, a)) rows
  in
  Cache.key_of_terms ~exact
    (List.length (fst (List.hd rows)))
    (List.map (fun (ls, a) -> (Pauli_string.of_list ls, angle a)) rows)

type mutation =
  | Fresh_ids
  | Flip_mode
  | Rotate of int
  | Set_angle of int * angle_spec
  | Set_letter of int * int * Pauli.t
  | Unrelated of (int * bool * (Pauli.t list * angle_spec) list)

let mutation_gen (k, _, rows) =
  let open QCheck2.Gen in
  let n = List.length rows in
  oneof
    [
      return Fresh_ids;
      return Flip_mode;
      map (fun r -> Rotate r) (int_range 1 (max 1 (n - 1)));
      map2
        (fun i a -> Set_angle (i, a))
        (int_range 0 (n - 1))
        (oneof
           [
             map (fun c -> Const c) (oneofl spec_consts);
             map2 (fun i n -> Slot (i, n)) (int_range 0 3) bool;
           ]);
      map3
        (fun i q p -> Set_letter (i, q, p))
        (int_range 0 (n - 1))
        (int_range 0 (k - 1))
        (oneofl [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]);
      map (fun g -> Unrelated g) group_spec_gen;
    ]

let mutate (k, exact, rows) = function
  | Fresh_ids -> (k, exact, rows)
  | Flip_mode -> (k, not exact, rows)
  | Rotate r -> (k, exact, rotate rows r)
  | Set_angle (i, a) ->
    (k, exact, List.mapi (fun j (ls, a') -> (ls, if j = i then a else a')) rows)
  | Set_letter (i, q, p) ->
    ( k,
      exact,
      List.mapi
        (fun j (ls, a) ->
          if j <> i then (ls, a) else (List.mapi (fun q' l -> if q' = q then p else l) ls, a))
        rows )
  | Unrelated g -> g

(* The memory tier hashes and compares packed keys, the disk tier the
   textual fingerprints: they must agree on every pair.  Rows cross the
   62-bit word boundary from k = 63; identity-only groups key as
   zero-qubit rows. *)
let prop_packed_equals_text =
  Helpers.qtest ~count:1000 "packed key equal iff textual fingerprint equal"
    QCheck2.Gen.(
      let* a = group_spec_gen in
      let* m = mutation_gen a in
      return (a, m))
    (fun (a, m) ->
      let ka = materialize a and kb = materialize (mutate a m) in
      let packed = String.equal (Cache.Testing.packed ka) (Cache.Testing.packed kb) in
      let text =
        String.equal (Cache.Testing.fingerprint ka) (Cache.Testing.fingerprint kb)
      in
      packed = text && match m with Fresh_ids -> packed | _ -> true)

(* The cases the differential must reach, pinned one by one. *)
let test_packed_cases () =
  let zz = [ Pauli.Z; Pauli.Z ] and xy = [ Pauli.X; Pauli.Y ] in
  let check name expect a b =
    let ka = materialize a and kb = materialize b in
    Alcotest.(check bool) (name ^ ": packed") expect
      (String.equal (Cache.Testing.packed ka) (Cache.Testing.packed kb));
    Alcotest.(check bool) (name ^ ": text") expect
      (String.equal (Cache.Testing.fingerprint ka) (Cache.Testing.fingerprint kb))
  in
  check "0.0 against -0.0" false
    (2, false, [ (zz, Const 0.0) ])
    (2, false, [ (zz, Const (-0.0)) ]);
  check "exact against Trotter" false
    (2, true, [ (zz, Const 0.5) ])
    (2, false, [ (zz, Const 0.5) ]);
  check "same slot pattern, other ids" true
    (2, false, [ (zz, Slot (0, false)); (xy, Slot (1, true)); (zz, Slot (0, false)) ])
    (2, false, [ (zz, Slot (2, false)); (xy, Slot (3, true)); (zz, Slot (2, false)) ]);
  check "other slot pattern" false
    (2, false, [ (zz, Slot (0, false)); (xy, Slot (1, false)) ])
    (2, false, [ (zz, Slot (0, false)); (xy, Slot (0, false)) ]);
  check "slot sign" false
    (2, false, [ (zz, Slot (0, false)) ])
    (2, false, [ (zz, Slot (0, true)) ]);
  check "rows permuted" false
    (2, false, [ (zz, Const 0.5); (xy, Const 0.5) ])
    (2, false, [ (xy, Const 0.5); (zz, Const 0.5) ]);
  let all_z = List.init 70 (fun _ -> Pauli.Z) in
  let wide q = List.init 70 (fun i -> if i = q then Pauli.X else Pauli.I) in
  check "rows across the word boundary" false
    (70, false, [ (all_z, Const 0.5); (wide 65, Const 0.5) ])
    (70, false, [ (all_z, Const 0.5); (wide 66, Const 0.5) ]);
  let identity n = List.init n (fun _ -> Pauli.I) in
  check "identity-only groups on whole registers" true
    (100, false, [ (identity 100, Const 0.5); (identity 100, Slot (0, false)) ])
    (30, false, [ (identity 30, Const 0.5); (identity 30, Slot (1, false)) ])

(* A key has no support, so it cannot name a layout whose rows leave
   some local qubits idle: it must refuse one rather than store or
   replay it. *)
let test_idle_local_qubit_raises () =
  let raises k terms =
    match Cache.key_of_terms ~exact:false k terms with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "one idle qubit" true
    (raises 3 [ (Pauli_string.of_string "ZIZ", 0.3) ]);
  Alcotest.(check bool) "idle qubit past the first word" true
    (raises 70
       [ (Pauli_string.of_list (List.init 70 (fun q -> if q = 65 then Pauli.I else Pauli.Z)), 0.3) ]);
  Alcotest.(check bool) "identity-only rows key" false
    (raises 3 [ (Pauli_string.of_string "III", 0.3) ]);
  Alcotest.(check bool) "every qubit touched" false
    (raises 3 [ (Pauli_string.of_string "ZIX", 0.3); (Pauli_string.of_string "IYI", 0.1) ])

(* On every group of four wide presets, the k-qubit tableau the cache
   key is built from has the canonical form of the register-wide one, so
   the digest is the register-wide tableau's.  The disk files' contents
   are pinned by test/cache_files; the [bytes] gauge counts what the
   memory entries hold (packed key and gates).  Same-shape groups share
   one entry wherever their supports sit, so a one-domain compile hits
   on all but its first group of each shape. *)
let test_local_canonical_forms () =
  List.iter
    (fun (spec, entries, bytes, hits, lookups) ->
      let h =
        match Phoenix_serve.Workload.of_spec spec with
        | Ok h -> h
        | Error msg -> Alcotest.failf "%s: %s" spec msg
      in
      let n = Phoenix_ham.Hamiltonian.num_qubits h in
      let groups = ref [] in
      let hook ~pass ~before:_ ~after ~seconds:_ =
        if pass.Phoenix.Pass.name = "group" then groups := after.Phoenix.Pass.groups
      in
      Cache.clear_memory ();
      let r =
        Registry.compile
          ~options:{ (opts ~cache:Cache.Mem ()) with Compiler.domains = 1 }
          ~hooks:[ hook ] Registry.phoenix h
      in
      let s = r.Compiler.cache_stats in
      Alcotest.(check (pair int int))
        (spec ^ " entries and bytes")
        (entries, bytes)
        (s.Cache.entries, s.Cache.bytes);
      Alcotest.(check (pair int int))
        (spec ^ " hits of lookups")
        (hits, lookups)
        (s.Cache.hits, s.Cache.hits + s.Cache.misses);
      Alcotest.(check bool) (spec ^ " has groups") true (!groups <> []);
      List.iteri
        (fun i (g : Group.t) ->
          let sites, local = Helpers.on_support n g.Group.terms in
          let k = Array.length sites in
          if
            Bsf.canonical_form (Bsf.of_terms k local)
            <> Bsf.canonical_form (Bsf.of_terms n g.Group.terms)
          then Alcotest.failf "%s: group %d canonical forms differ" spec i)
        !groups)
    [
      ("heisenberg:100", 1, 552, 98, 99);
      ("qaoa:Reg3-250", 1, 152, 374, 375);
      ("qaoa:Reg3-500", 1, 152, 749, 750);
      ("tfim:200", 2, 296, 397, 399);
    ]

(* Same-shape groups on 1,000 supports, in the first word and past it,
   key the way the simplify pass keys them: one digest and one packed
   fingerprint, so they share one memory entry, and every key replays
   it. *)
let test_one_entry_per_shape () =
  Cache.clear_memory ();
  Cache.reset_stats ();
  let n = 1100 in
  let zz = Pauli_string.of_string "ZZ" in
  let circuit = Synthesis.support_circuit 2 [ (zz, 0.3) ] in
  let keys =
    List.init 1000 (fun i ->
        let sites, local = Helpers.on_support n [ (Helpers.embed_string n [| i; i + 1 + i mod 3 |] zz, 0.3) ] in
        Cache.key_of_terms ~exact:false (Array.length sites) local)
  in
  List.iter (fun key -> Cache.store ~tier:Cache.Mem key circuit) keys;
  Alcotest.(check int) "one digest" 1
    (List.length (List.sort_uniq String.compare (List.map Cache.digest keys)));
  Alcotest.(check (pair int int)) "insertions and entries" (1, 1)
    ((Cache.stats ()).Cache.insertions, (Cache.stats ()).Cache.entries);
  Alcotest.(check bool) "every key replays the entry" true
    (List.for_all (fun key -> Cache.lookup ~tier:Cache.Mem key = Some circuit) keys);
  Cache.clear_memory ()

(* --- qcheck: cold = warm = re-warm on random gadget programs --------- *)

let prop_warm_equals_cold_random =
  Helpers.qtest ~count:60 "cold = populate = warm on random programs"
    (Helpers.terms_gen 5 10)
    (fun terms ->
      Cache.clear_memory ();
      let run tier =
        digest
          (Registry.compile_gadgets
             Registry.phoenix ~options:(opts ~cache:tier ()) 5 terms)
            .Compiler.circuit
      in
      let cold = run Cache.Off in
      let populate = run Cache.Mem in
      let warm = run Cache.Mem in
      String.equal cold populate && String.equal cold warm)

(* --- disk-tier fault injection --------------------------------------- *)

let read_all path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let corrupt_truncate path = write_all path (String.sub (read_all path) 0 (String.length (read_all path) / 2))

let corrupt_bitflip path =
  let s = Bytes.of_string (read_all path) in
  let i = Bytes.length s - 1 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x01));
  write_all path (Bytes.to_string s)

let corrupt_version path =
  let s = read_all path in
  let nl = String.index s '\n' in
  write_all path ("phoenix-cache-v0" ^ String.sub s nl (String.length s - nl))

let heisenberg = lazy (Phoenix_ham.Spin_models.heisenberg_chain 6)

let cache_warnings (r : Compiler.report) =
  List.filter
    (fun (d : Diag.t) ->
      d.Diag.pass = "cache" && d.Diag.severity = Diag.Warning)
    r.Compiler.diagnostics

let test_disk_fault_injection () =
  let h = Lazy.force heisenberg in
  let o = opts () in
  List.iter
    (fun (kind, corrupt) ->
      fresh_cache ();
      let cold = Registry.compile ~options:o (entry "phoenix") h in
      let _populate =
        Registry.compile ~options:(with_cache Cache.Disk o) (entry "phoenix") h
      in
      let files = Cache.Persist.list_files ~dir:cache_dir () in
      Alcotest.(check bool) (kind ^ " entries persisted") true (files <> []);
      corrupt (List.hd files);
      Cache.clear_memory ();
      Cache.reset_stats ();
      let r =
        Registry.compile ~options:(with_cache Cache.Disk o) (entry "phoenix") h
      in
      Alcotest.(check string) (kind ^ " recompilation = cold")
        (digest cold.Compiler.circuit)
        (digest r.Compiler.circuit);
      let s = r.Compiler.cache_stats in
      Alcotest.(check bool) (kind ^ " detected") true (s.Cache.disk_errors > 0);
      Alcotest.(check bool)
        (kind ^ " warning diagnostic")
        true
        (cache_warnings r <> []);
      (* Self-healing: the recompilation re-persisted the entry, so the
         next cold-memory run is served from disk without complaints. *)
      Cache.clear_memory ();
      Cache.reset_stats ();
      let r2 =
        Registry.compile ~options:(with_cache Cache.Disk o) (entry "phoenix") h
      in
      let s2 = r2.Compiler.cache_stats in
      Alcotest.(check string) (kind ^ " healed = cold")
        (digest cold.Compiler.circuit)
        (digest r2.Compiler.circuit);
      Alcotest.(check int) (kind ^ " healed: no errors") 0 s2.Cache.disk_errors;
      Alcotest.(check bool) (kind ^ " healed: disk hits") true
        (s2.Cache.disk_hits > 0);
      Alcotest.(check bool)
        (kind ^ " healed: no warnings")
        true
        (cache_warnings r2 = []))
    [
      "truncated", corrupt_truncate;
      "bit-flipped", corrupt_bitflip;
      "version-mismatched", corrupt_version;
    ]

(* --- LRU byte budget -------------------------------------------------- *)

let test_lru_budget () =
  Cache.clear_memory ();
  Cache.reset_stats ();
  let old_budget = Cache.budget () in
  let budget = 4096 in
  Cache.set_budget budget;
  let rand = Random.State.make [| 20250806 |] in
  let n = 6 in
  let first_key = ref None in
  for i = 0 to 63 do
    let terms =
      QCheck2.Gen.generate1 ~rand (Helpers.terms_gen n 3)
      (* angle offset makes every group content-distinct even when the
         generator repeats a string *)
      |> List.map (fun (p, a) -> (p, a +. (0.001 *. float_of_int i)))
    in
    let sites, local = Helpers.on_support n terms in
    let k = Array.length sites in
    let key = Cache.key_of_terms ~exact:false k local in
    if !first_key = None then first_key := Some key;
    Cache.store ~tier:Cache.Mem key (Synthesis.support_circuit k local);
    Alcotest.(check bool)
      (Printf.sprintf "bytes within budget after store %d" i)
      true
      ((Cache.stats ()).Cache.bytes <= budget)
  done;
  let s = Cache.stats () in
  Alcotest.(check bool) "evictions happened" true (s.Cache.evictions > 0);
  Alcotest.(check bool) "entries below insertions" true
    (s.Cache.entries < s.Cache.insertions);
  (match !first_key with
  | Some key ->
    Alcotest.(check bool) "oldest entry evicted" true
      (Cache.lookup ~tier:Cache.Mem key = None)
  | None -> Alcotest.fail "no key stored");
  Cache.set_budget old_budget;
  Cache.clear_memory ()

(* The [bytes] gauge is the heap an entry holds: its packed key and its
   gates as a tree.  An unshared copy of the gates (a
   [No_sharing] marshal round trip) has exactly the tree's words, so
   [Obj.reachable_words] checks the count on every gate kind. *)
let test_bytes_are_heap_words () =
  Cache.clear_memory ();
  let gates =
    [
      Gate.G1 (Gate.H, 0);
      Gate.G1 (Gate.Rz 0.25, 1);
      Gate.G1 (Gate.Rx (-0.5), 0);
      Gate.Cnot (0, 1);
      Gate.Swap (1, 0);
      Gate.Cliff2 (Phoenix_pauli.Clifford2q.make Phoenix_pauli.Clifford2q.CZX 0 1);
      Gate.Rpp { p0 = Pauli.X; p1 = Pauli.Z; a = 0; b = 1; theta = 0.75 };
      Gate.Su4
        { a = 0; b = 1; parts = [ Gate.Cnot (0, 1); Gate.G1 (Gate.Ry 0.1, 0) ] };
    ]
  in
  let key =
    Cache.key_of_terms ~exact:false 2
      [ (Pauli_string.of_string "ZZ", 0.3); (Pauli_string.of_string "XY", 0.2) ]
  in
  Cache.store ~tier:Cache.Mem key (Circuit.create 2 gates);
  let unshared : Gate.t list =
    Marshal.from_string (Marshal.to_string gates [ Marshal.No_sharing ]) 0
  in
  let words v = Obj.reachable_words (Obj.repr v) in
  Alcotest.(check int) "bytes = heap words of packed key and gates"
    ((Sys.word_size / 8) * (words (Cache.Testing.packed key) + words unshared))
    (Cache.stats ()).Cache.bytes;
  Cache.clear_memory ()

(* --- stats bookkeeping ------------------------------------------------ *)

let test_stats_diff () =
  let a =
    {
      Cache.hits = 10;
      misses = 4;
      disk_hits = 2;
      disk_errors = 1;
      evictions = 3;
      insertions = 6;
      entries = 5;
      bytes = 777;
    }
  in
  let b =
    {
      Cache.hits = 14;
      misses = 6;
      disk_hits = 2;
      disk_errors = 1;
      evictions = 4;
      insertions = 8;
      entries = 9;
      bytes = 1234;
    }
  in
  let d = Cache.diff b a in
  Alcotest.(check int) "hits" 4 d.Cache.hits;
  Alcotest.(check int) "misses" 2 d.Cache.misses;
  Alcotest.(check int) "evictions" 1 d.Cache.evictions;
  Alcotest.(check int) "insertions" 2 d.Cache.insertions;
  (* gauges come from the later snapshot *)
  Alcotest.(check int) "entries" 9 d.Cache.entries;
  Alcotest.(check int) "bytes" 1234 d.Cache.bytes;
  Alcotest.(check (list string))
    "json has all counters, in record order"
    [ "hits"; "misses"; "disk_hits"; "disk_errors"; "evictions"; "insertions"; "entries"; "bytes" ]
    (match Cache.stats_json d with
    | Phoenix_util.Json.Obj fields -> List.map fst fields
    | _ -> [])

let () =
  Alcotest.run "cache"
    [
      ( "differential",
        [
          Alcotest.test_case "warm = cold on presets (golden)" `Slow
            test_warm_equals_cold_presets;
          Alcotest.test_case "all pipelines disk-identical" `Slow
            test_all_pipelines_disk_identical;
          prop_warm_equals_cold_random;
        ] );
      ( "addressing",
        [
          prop_digest_reorder_invariant;
          prop_digest_sign_flip_distinct;
          prop_relabel_equivariance;
          prop_support_synthesis_is_register_synthesis;
          prop_support_position_independent;
          prop_packed_equals_text;
          Alcotest.test_case "packed key cases" `Quick test_packed_cases;
          Alcotest.test_case "idle local qubits raise" `Quick
            test_idle_local_qubit_raises;
          Alcotest.test_case "local canonical forms on wide presets" `Quick
            test_local_canonical_forms;
          Alcotest.test_case "one entry per shape on any support" `Quick
            test_one_entry_per_shape;
        ] );
      ( "faults",
        [
          Alcotest.test_case "disk fault injection" `Slow
            test_disk_fault_injection;
          Alcotest.test_case "lru byte budget" `Quick test_lru_budget;
        ] );
      ( "stats",
        [
          Alcotest.test_case "diff and json" `Quick test_stats_diff;
          Alcotest.test_case "bytes are heap words" `Quick
            test_bytes_are_heap_words;
        ] );
    ]
