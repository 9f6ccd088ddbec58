(* The benchmark's inputs, all derived from the seed.

   Every program the benchmark loads is built here: the three hand-written
   packet filters and the verifier-stress image are re-declared (not
   imported from the repo's other bench), and the generated images come
   from seeded [Fuzz.Gen] draws.  Draws are kept only when a cost proxy
   computed from the generated shape alone falls inside a fixed band, so
   two seeds give populations of nearly the same size and work.  The proxy
   never asks the program under test anything: a change to the verifier or
   the runtime cannot change which inputs a seed produces. *)

open Untenable
module Gen = Fuzz.Gen
module Rng = Fuzz.Rng
module Program = Ebpf.Program

let hook = "xdp"

(* ---- hand-written programs ---- *)

let filter name items =
  Program.of_items_exn ~name ~prog_type:Program.Socket_filter items

let filters () =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  [ filter "len" [ ldxw r0 r1 0; exit_ ];
    filter "parity" [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ];
    (* payload-dependent: the big-endian u16 at offset 16 *)
    filter "port"
      [ stdw r10 (-8) 0; mov_i r1 16; mov_r r2 r10; add_i r2 (-8);
        mov_i r3 2; call (h "bpf_skb_load_bytes"); ldxb r6 r10 (-8);
        lsh_i r6 8; ldxb r7 r10 (-7); or_r r6 r7; mov_r r0 r6; exit_ ] ]

(* Tail-call leaves: the reload flips slot [Gen.default_env.tail_index]
   between them, so an epoch swap changes what the "helpers" image
   returns. *)
let leaf v = filter (Printf.sprintf "leaf%d" v) Ebpf.Asm.[ mov_i r0 v; exit_ ]

(* The section 2.1 shape: branches that OR a path-unique bit into r7, so no
   state at a join subsumes another and pruning never fires.  Cold
   verification cost doubles with each extra branch. *)
let unprunable n =
  let open Ebpf.Asm in
  let items =
    List.concat
      [ [ mov_i r0 0; mov_i r7 0 ];
        List.concat_map
          (fun i ->
            [ ldxdw r6 r1 (8 * (i mod 8));
              jle_i r6 1000 (Printf.sprintf "t%d" i);
              or_i r7 (1 lsl i);
              label (Printf.sprintf "t%d" i) ])
          (List.init n (fun i -> i));
        [ mov_i r0 0; exit_ ] ]
  in
  Program.of_items_exn ~name:(Printf.sprintf "unprunable%d" n)
    ~prog_type:Program.Kprobe items

(* Branch count of the setup stress image: its cold verify dominates
   set-up time (tenths of a second), so [setup_s] measures deploy cost
   rather than allocator noise. *)
let stress_branches = 10

(* ---- the maps every generated image compiles against ---- *)

let map_defs =
  let def name kind key_size value_size max_entries =
    { Maps.Bpf_map.name; kind; key_size; value_size; max_entries;
      lock_off = None }
  in
  [ def "bench_arr" Maps.Bpf_map.Array 4 8 16;
    def "bench_hash" Maps.Bpf_map.Hash 4 8 8;
    def "bench_rb" Maps.Bpf_map.Ringbuf 0 0 256 ]

(* A fresh world holds no maps, so registration order fixes the fds;
   [Workloads.fresh_world] checks every world it builds agrees. *)
let env = { Gen.default_env with Gen.tail_index = 0 }

(* ---- the Path B extension ---- *)

let rustlite_maps =
  [ { Maps.Bpf_map.name = "rl_ports"; kind = Maps.Bpf_map.Array;
      key_size = 4; value_size = 8; max_entries = 8; lock_off = None } ]

(* Counts packets per destination-port bucket and returns the bucket's
   count: stateful, so the output check exercises map state too. *)
let rustlite_source =
  {|
    let hi = match skb_byte(16) { Some(b) => b, None => 0 };
    let lo = match skb_byte(17) { Some(b) => b, None => 0 };
    let bucket = ((hi << 8) | lo) % 8;
    let seen = match map_get("rl_ports", bucket) { Some(n) => n + 1, None => 1 };
    map_set("rl_ports", bucket, seen);
    seen
  |}

let rustlite_ext () =
  let body = Rustlite.Parser.parse_exn rustlite_source in
  match
    Rustlite.Toolchain.compile
      { Rustlite.Toolchain.name = "rl_ports"; maps = rustlite_maps; body }
  with
  | Ok ext -> ext
  | Error e ->
    failwith (Format.asprintf "rustlite source: %a" Rustlite.Toolchain.pp_error e)

(* ---- seeded generated images ---- *)

(* Each generated image follows a fixed template of [Fuzz.Gen] chunk
   kinds; the seed picks every constant, register, map key, branch
   condition and loop trip count inside the chunks.  Fixing the kinds
   keeps verify, analysis and run costs close from one seed to the next,
   which a free draw over chunk counts and kinds does not. *)

let chunk_of = function
  | "alu" -> Gen.chunk_alu
  | "diamond" -> Gen.chunk_diamond
  | "loop" -> Gen.chunk_loop
  | "ctx" -> Gen.chunk_ctx
  | "stack" -> Gen.chunk_stack
  | "map_lookup" -> Gen.chunk_map_lookup
  | "map_update" -> Gen.chunk_map_update
  | "ringbuf" -> Gen.chunk_ringbuf
  | "helper_misc" -> Gen.chunk_helper_misc
  | "tail_call" -> Gen.chunk_tail_call
  | "leak" -> Gen.chunk_leak
  | "null_deref" -> Gen.chunk_null_deref
  | "oob_stack" -> Gen.chunk_oob_stack
  | k -> invalid_arg ("no generator chunk " ^ k)

let shape ~dist rng template =
  let chunks = List.mapi (fun k kind -> (chunk_of kind) rng env k) template in
  { Gen.dist; prologue = Gen.prologue; chunks; epilogue = Gen.epilogue;
    uses_maps =
      List.exists (fun (c : Gen.chunk) -> List.mem c.Gen.kind Gen.stateful_kinds) chunks }

let chunk_insns (c : Gen.chunk) =
  List.length
    (List.filter (function Ebpf.Asm.Label _ -> false | _ -> true) c.Gen.items)

(* Instructions a shape retires at most, read off the generator's own
   chunk layout: a counted loop is [mov r7, trips; body; sub; jne], so it
   retires [1 + trips * (body + 2)]; everything else at most once.  A tail
   call ends the program. *)
let work (s : Gen.shape) =
  let rec go acc = function
    | [] -> acc + List.length s.Gen.epilogue
    | (c : Gen.chunk) :: rest -> (
      let n = chunk_insns c in
      match (c.Gen.kind, c.Gen.items) with
      | "tail_call", _ -> acc + n + 2
      | "loop", Ebpf.Asm.Plain (Ebpf.Insn.Alu { src = Ebpf.Insn.Imm trips; _ }) :: _
        ->
        go (acc + 1 + (trips * (n - 1))) rest
      | _ -> go (acc + n) rest)
  in
  go (List.length s.Gen.prologue) s.Gen.chunks

(* A multiply or left shift inside a counted loop grows a register
   geometrically, and the analysis passes' cost on such a loop depends on
   the constants drawn (0.1 to 20 ms for one image).  Seeded images keep
   their loop bodies additive, so that two seeds load alike; the fixed
   [geometric] images below carry that case into every deploy batch at
   the slow end of its range instead. *)
let geometric_loop (s : Gen.shape) =
  List.exists
    (fun (c : Gen.chunk) ->
      c.Gen.kind = "loop"
      && List.exists
           (function
             | Ebpf.Asm.Plain (Ebpf.Insn.Alu { op = Ebpf.Insn.Mul | Ebpf.Insn.Lsh; _ }) -> true
             | _ -> false)
           c.Gen.items)
    s.Gen.chunks

(* A template's band: the median instruction count and the median work
   of a fixed calibration draw, each plus or minus [band_width].  The
   calibration seed is a constant, so the band is the same for every run
   seed. *)
let band_width = 0.05

type band = { len : float * float; work : float * float }

let band ~dist template =
  let rng = Rng.create 0x5EED_BA9DL in
  let rec sample acc n =
    if n = 0 then acc
    else
      let s = shape ~dist rng template in
      if geometric_loop s then sample acc n else sample (s :: acc) (n - 1)
  in
  let shapes = sample [] 201 in
  let around f =
    let mid = float (List.nth (List.sort compare (List.map f shapes)) 100) in
    (mid *. (1. -. band_width), mid *. (1. +. band_width))
  in
  { len = around Gen.insn_count; work = around work }

(* Bands are computed once per template and kept: drawing them allocates
   a few hundred shapes, which would otherwise set the process's peak
   heap before the program had run. *)
let bands = Hashtbl.create 8

let band ~dist template =
  match Hashtbl.find_opt bands (dist, template) with
  | Some b -> b
  | None ->
    let b = band ~dist template in
    Hashtbl.add bands (dist, template) b;
    b

let draw rng ~dist ~name template =
  let b = band ~dist template in
  let inside (lo, hi) v = float v >= lo && float v <= hi in
  let rec go tries =
    if tries > 1_000_000 then failwith ("population: no draw fits the band of " ^ name);
    let s = shape ~dist rng template in
    if inside b.len (Gen.insn_count s) && inside b.work (work s) && not (geometric_loop s)
    then Gen.program_of_shape_exn ~name s
    else go (tries + 1)
  in
  go 0

(* The four serving images, one per layer the workloads exercise: counted
   loops, map lookup and update, ringbuf, helpers ending in a tail call. *)
let serve_templates =
  [ ("loops", [ "loop"; "alu"; "diamond"; "ctx"; "loop" ]);
    ("maps", [ "map_lookup"; "alu"; "map_update"; "diamond"; "map_lookup" ]);
    ("ringbuf", [ "ringbuf"; "alu"; "loop"; "stack"; "ringbuf" ]);
    ("helpers", [ "helper_misc"; "diamond"; "loop"; "helper_misc"; "tail_call" ]) ]

let serve_images seed =
  let rng = Rng.create (Int64.of_int ((seed * 2) + 1)) in
  List.map (fun (name, t) -> draw rng ~dist:Gen.Clean ~name t) serve_templates

(* The load-verify pool: [pool_size] clean images cycling over four
   templates plus the [geometric] images, and one image per hazard the
   verifier must refuse (a leaked socket reference, an unchecked map-value
   dereference, a store above the frame pointer).  [probe_read] is never
   drawn: whether it is caught depends on the helper-bug window, so it has
   no answer known by construction. *)
let pool_size = 12

(* Two fixed images whose counted loop multiplies a register by an even
   constant, laid out as the generator lays out its chunks: the slowest
   shapes for the analysis passes among the generator's draws (about 20 ms
   each to analyze on a 2 GHz Xeon core, against 0.2 ms for the seeded
   images).  They do not depend on the seed; the traced run reports their
   analysis time as [pipeline.analyze_geometric_us]. *)
let geometric =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  let gen name body =
    Program.of_items_exn ~name ~prog_type:Program.Socket_filter
      (Gen.prologue @ body @ Gen.epilogue)
  in
  [ gen "geo_ringbuf"
      [ map_fd r1 env.Gen.rb_fd; mov_i r2 8; mov_i r3 0;
        call (h "bpf_ringbuf_reserve"); jeq_i r0 0 "full";
        stxdw r0 0 r6; mov_r r1 r0; mov_i r2 0;
        call (h "bpf_ringbuf_submit"); label "full"; mov_i r0 0;
        xor_i r8 11332; sub_i r8 267; and_i r6 55551;
        jlt_i r6 96 "t"; or_i r8 19; xor_i r6 35297; ja "j";
        label "t"; or_i r6 10; add_r r6 r8; xor_i r8 21810; label "j";
        mov_i r7 4; label "l"; and_i r8 45055; mul_i r6 2; sub_i r7 1; jne_i r7 0 "l";
        call (h "bpf_get_prandom_u32"); and_i r0 0xff; add_r r6 r0 ];
    gen "geo_maps"
      [ mov_i r7 12; label "l"; mod_i r6 6; mul_i r8 6; add_i r8 51; sub_i r7 1;
        jne_i r7 0 "l";
        jlt_i r6 18 "t"; add_i r6 322; sub_i r6 326; mul_i r8 6; ja "j";
        label "t"; lsh_i r6 14; xor_i r8 57711; label "j";
        stw r10 (-8) 6; map_fd r1 env.Gen.arr_fd; mov_r r2 r10; add_i r2 (-8);
        call (h "bpf_map_lookup_elem"); jeq_i r0 0 "miss";
        ldxdw r8 r0 0; add_r r6 r8; label "miss"; mov_i r0 0;
        div_i r6 2; xor_i r6 24059; sub_i r8 435; ldxw r8 r9 4; add_r r6 r8 ] ]

let pool_templates =
  [| [ "loop"; "diamond"; "map_lookup"; "alu"; "ctx" ];
     [ "map_update"; "loop"; "stack"; "diamond"; "alu" ];
     [ "ringbuf"; "alu"; "diamond"; "loop"; "helper_misc" ];
     [ "ctx"; "diamond"; "map_lookup"; "loop"; "map_update" ] |]

(* Images every deploy batch loads cold and accepts. *)
let clean_count = pool_size + List.length geometric

let hazards = [ "leak"; "null_deref"; "oob_stack" ]
let reject_count = List.length hazards

let load_pool seed =
  let rng = Rng.create (Int64.of_int ((seed * 2) + 2)) in
  let clean =
    List.init pool_size (fun i ->
        draw rng ~dist:Gen.Clean ~name:(Printf.sprintf "pool%d" i)
          pool_templates.(i mod Array.length pool_templates))
    @ geometric
  in
  let bad =
    List.map
      (fun h -> draw rng ~dist:Gen.Adversarial ~name:h [ "alu"; "loop"; "diamond"; h; "alu" ])
      hazards
  in
  (clean, bad)

(* ---- packets ---- *)

let burst_size = 64  (* the NAPI poll budget *)
let packet_size = 64

(* Burst [op] of a run: a pure function of (seed, op), so the output check
   regenerates it after the timed window instead of storing it. *)
let burst ~seed ~op =
  let rng = Rng.create (Int64.of_int ((seed * 1_000_003) + op + 7)) in
  Array.init burst_size (fun _ ->
      Bytes.init packet_size (fun _ -> Char.chr (Rng.int rng 256)))
