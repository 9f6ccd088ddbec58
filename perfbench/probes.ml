(* Per-layer probes for the traced run.

   Each probe calls one layer's public functions directly, under spans,
   on inputs drawn from the same seed as the workloads, with fixed
   repetition counts.  The probe suite is the same on every workload
   (only the serving engine's mode follows the workload), so every
   per-layer metric is measured on every workload.  Numbers obtained by
   subtracting one measurement from another are marked derived. *)

open Untenable
module W = Workloads
module P = Population
module Serve = Framework.Serve
module Attach = Framework.Attach
module Pipeline = Framework.Pipeline
module World = Framework.World
module Invoke = Framework.Invoke

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  derived : bool;
}

let m ?(derived = false) name unit_ samples value =
  let value = if Float.is_finite value then value else 0. in
  { name; value; unit_; samples; derived }

let counter name = Telemetry.Counter.value (Telemetry.Registry.counter name)

let ratio a b = if b = 0. then 0. else a /. b

let next_op = ref 1_000_000

(* A probe repetition is an op of its own in the trace. *)
let as_op name f =
  incr next_op;
  Trace.with_op !next_op (fun () -> Trace.span name f)

let bursts = 12
let probe_burst seed b = P.burst ~seed ~op:(1_000_000 + b)

let ebpf_progs (s : W.serving) =
  List.filter_map
    (fun (a : Attach.attachment) ->
      match a.Attach.loaded with
      | Pipeline.Ebpf_prog { prog; _ } -> Some prog
      | Pipeline.Rustlite_ext _ -> None)
    (Attach.attached s.W.engine.Serve.attach ~hook:P.hook)

(* Replay [bursts] bursts on a fresh twin in one mode.  Returns the
   summed per-invocation span time, the invocation count, and how far
   each of the [counters] moved during the replays alone. *)
let replay_probe ~jit ~counters (inp : Runner.inputs) =
  let twin = W.build_serving ~jit ~images:inp.Runner.images () in
  let opts = W.serve_opts ~jit twin.W.world in
  let ebpf = if jit then "invoke.jit" else "invoke.interp" in
  let t0 = Trace.total_us ebpf +. Trace.total_us "invoke.rustlite" in
  let c0 = Trace.count ebpf + Trace.count "invoke.rustlite" in
  let before = List.map counter counters in
  for b = 0 to bursts - 1 do
    as_op ("probe.replay." ^ if jit then "jit" else "interp") (fun () ->
        ignore (W.replay ~opts ~reloads:false twin (probe_burst inp.Runner.seed b)))
  done;
  ( Trace.total_us ebpf +. Trace.total_us "invoke.rustlite" -. t0,
    Trace.count ebpf + Trace.count "invoke.rustlite" - c0,
    List.map2 (fun name b -> float (counter name - b)) counters before )

let run kind (inp : Runner.inputs) =
  let seed = inp.Runner.seed in
  let jit = Runner.jit_of kind in
  (* -- Invoke + Interp / JIT + helpers + kernel memory -- *)
  let interp_us, interp_inv, interp_counts =
    replay_probe ~jit:false inp
      ~counters:[ "interp.insns"; "helper.calls"; "ksim.mem_loads"; "ksim.mem_stores" ]
  in
  let interp_insns, helper_calls, mem_ops =
    match interp_counts with
    | [ insns; helpers; loads; stores ] -> (insns, helpers, loads +. stores)
    | _ -> assert false
  in
  let jit_us, jit_inv, jit_counts =
    replay_probe ~jit:true inp ~counters:[ "jit.insns"; "jit.compiles" ]
  in
  let jit_insns, jit_compiles =
    match jit_counts with [ insns; compiles ] -> (insns, compiles) | _ -> assert false
  in
  let setup_groups = 20 in
  (let w = W.fresh_world () in
   let l = W.load_exn w (P.filter "nop" Ebpf.Asm.[ mov_i r0 0; exit_ ]) in
   let ictx = Invoke.create w in
   let opts =
     { Invoke.default_opts with Invoke.skb_payload = Some (probe_burst seed 0).(0) }
   in
   for _ = 1 to setup_groups do
     as_op "probe.invoke_setup" (fun () ->
         for _ = 1 to 100 do
           ignore (Trace.span "invoke.setup" (fun () -> Invoke.run ~opts ~ictx w l))
         done)
   done);
  (* -- Serve (+Attach) against a direct Invoke replay of the same events -- *)
  let s = W.build_serving ~jit ~images:inp.Runner.images () in
  let serve_inv = ref 0 in
  for b = 0 to bursts - 1 do
    as_op "probe.serve" (fun () ->
        let _, inv = W.serve_op ~reloads:false s (probe_burst seed b) in
        serve_inv := !serve_inv + inv)
  done;
  let atts = Attach.attached s.W.engine.Serve.attach ~hook:P.hook in
  for _ = 1 to 32 do
    as_op "probe.digest" (fun () ->
        List.iter
          (fun a -> ignore (Trace.span "attach.digest" (fun () -> Attach.digest a)))
          atts)
  done;
  (* -- JIT compile, one image at a time -- *)
  (let hctx = World.new_hctx s.W.world in
   let progs = ebpf_progs s in
   for _ = 1 to 32 do
     as_op "probe.jit_compile" (fun () ->
         List.iter
           (fun p -> ignore (Trace.span "jit.compile" (fun () -> Runtime.Jit.compile hctx p)))
           progs)
   done);
  (* -- SHA-256 -- *)
  let blob = String.init 65_536 (fun i -> Char.chr ((i * 131 + seed) land 0xff)) in
  let sha_reps = 48 in
  for _ = 1 to sha_reps do
    as_op "probe.sha256" (fun () ->
        ignore (Trace.span "sha256.digest" (fun () -> Hash.Sha256.digest blob)))
  done;
  (* -- Pipeline stages one by one, cold; then whole loads cold and hit -- *)
  (* Seeded images only: the fixed geometric ones would set every stage's
     mean, so their analysis is timed on its own. *)
  let seeded = List.filter (fun p -> not (List.memq p P.geometric)) inp.Runner.clean in
  let processed = ref 0 and explored = ref 0 and pruned = ref 0 in
  for _ = 1 to 2 do
    List.iter
      (fun p ->
        as_op "probe.pipeline" (fun () ->
            let w = W.fresh_world () in
            let vconfig = World.vconfig w and aconfig = World.aconfig w in
            let ok = function
              | Ok x -> x
              | Error e -> W.fail "%s" (Format.asprintf "%a" Pipeline.pp_error e)
            in
            let p = ok (Trace.span "pipeline.admit" (fun () -> Pipeline.admit ~vconfig p)) in
            let p = ok (Trace.span "pipeline.fixup" (fun () -> Pipeline.fixup p)) in
            ignore
              (Trace.span "pipeline.analyze" (fun () ->
                   Pipeline.analyze_ebpf ~use_cache:false ~aconfig w p));
            let st =
              ok
                (Trace.span "pipeline.verify" (fun () ->
                     Pipeline.gate_verify ~use_cache:false ~vconfig ~aconfig w p))
            in
            processed := !processed + st.Bpf_verifier.Verifier.insns_processed;
            explored := !explored + st.Bpf_verifier.Verifier.states_explored;
            pruned := !pruned + st.Bpf_verifier.Verifier.prune_hits);
        as_op "probe.load" (fun () ->
            let w = W.fresh_world () in
            ignore (Trace.span "pipeline.load_ebpf.cold" (fun () -> W.load_exn w p));
            ignore (Trace.span "pipeline.load_ebpf.hit" (fun () -> W.load_exn w p))))
      seeded;
    List.iter
      (fun p ->
        as_op "probe.analyze_geometric" (fun () ->
            let w = W.fresh_world () in
            let vconfig = World.vconfig w and aconfig = World.aconfig w in
            match Result.bind (Pipeline.admit ~vconfig p) Pipeline.fixup with
            | Error e -> W.fail "%s" (Format.asprintf "%a" Pipeline.pp_error e)
            | Ok p ->
              ignore
                (Trace.span "pipeline.analyze_geometric" (fun () ->
                     Pipeline.analyze_ebpf ~use_cache:false ~aconfig w p))))
      P.geometric;
    List.iter
      (fun p ->
        as_op "probe.reject" (fun () ->
            let w = W.fresh_world () in
            match
              Trace.span "pipeline.load_ebpf.reject" (fun () -> Pipeline.load_ebpf w p)
            with
            | Ok _ -> W.fail "%s was accepted" p.Ebpf.Program.name
            | Error _ -> ()))
      inp.Runner.bad
  done;
  (let ext = P.rustlite_ext () in
   for _ = 1 to 8 do
     as_op "probe.validate" (fun () ->
         for _ = 1 to 25 do
           match Trace.span "pipeline.validate" (fun () -> Pipeline.gate_validate ext) with
           | Ok () -> ()
           | Error _ -> W.fail "signed extension failed validation"
         done)
   done);
  (* -- Epoch publish with the reload's staging -- *)
  (* A reader passing through after each publish (a pin and its release)
     is what lets the superseded epoch retire, as between served events. *)
  let reader_passes () = World.unpin s.W.world (World.pin s.W.world) in
  let publishes = 64 in
  for _ = 1 to publishes do
    as_op "probe.epoch" (fun () ->
        ignore
          (Trace.span "epoch.publish" (fun () ->
               World.reconfigure s.W.world (W.reload s)));
        reader_passes ())
  done;
  (* Heap each publish leaves reachable from the world, the engine and
     the telemetry registry, counted by walking them: unlike a live-heap
     reading it does not move with garbage elsewhere in the process. *)
  let live_publishes = 512 in
  let live_per_publish =
    let was = !Trace.on in
    Trace.set_enabled false;
    let retained () =
      Obj.reachable_words (Obj.repr (s.W.world, s.W.engine, Telemetry.Registry.global))
    in
    let w0 = retained () in
    for _ = 1 to live_publishes do
      ignore (World.reconfigure s.W.world (W.reload s));
      reader_passes ()
    done;
    let w1 = retained () in
    Trace.set_enabled was;
    float ((w1 - w0) * (Sys.word_size / 8)) /. float live_publishes
  in
  let mean = Trace.mean_us and cnt = Trace.count in
  let serve_per_inv = ratio (Trace.total_us "serve.run") (float !serve_inv) in
  let replay_per_inv =
    if jit then ratio jit_us (float jit_inv) else ratio interp_us (float interp_inv)
  in
  let overhead = serve_per_inv -. replay_per_inv in
  let digest = mean "attach.digest" in
  let stages =
    mean "pipeline.admit" +. mean "pipeline.fixup" +. mean "pipeline.analyze"
    +. mean "pipeline.verify"
  in
  [ m "serve.us_per_invocation" "us" !serve_inv serve_per_inv;
    m ~derived:true "serve.overhead_us_per_invocation" "us" !serve_inv overhead;
    m "attach.digest_us" "us" (cnt "attach.digest") digest;
    m ~derived:true "attach.digest_share_of_overhead_pct" "%" (cnt "attach.digest")
      (100. *. ratio digest overhead);
    m "invoke.setup_us" "us" (cnt "invoke.setup") (mean "invoke.setup");
    m "invoke.interp_us" "us" (cnt "invoke.interp") (mean "invoke.interp");
    m "invoke.jit_us" "us" (cnt "invoke.jit") (mean "invoke.jit");
    m "invoke.rustlite_us" "us" (cnt "invoke.rustlite") (mean "invoke.rustlite");
    m "interp.insns_per_invocation" "count" (cnt "invoke.interp")
      (ratio interp_insns (float (cnt "invoke.interp")));
    m "interp.ns_per_insn" "ns" (cnt "invoke.interp")
      (ratio (1e3 *. Trace.total_us "invoke.interp") interp_insns);
    m "jit.compile_us" "us" (cnt "jit.compile") (mean "jit.compile");
    m "jit.compiles_per_invocation" "count" (cnt "invoke.jit")
      (ratio jit_compiles (float (cnt "invoke.jit")));
    m "jit.ns_per_insn" "ns" (cnt "invoke.jit")
      (ratio (1e3 *. Trace.total_us "invoke.jit") jit_insns);
    m "helper.calls_per_invocation" "count" interp_inv
      (ratio helper_calls (float interp_inv));
    m "ksim.mem_ops_per_invocation" "count" interp_inv (ratio mem_ops (float interp_inv));
    m "pipeline.admit_us" "us" (cnt "pipeline.admit") (mean "pipeline.admit");
    m "pipeline.analyze_us" "us" (cnt "pipeline.analyze") (mean "pipeline.analyze");
    m "pipeline.verify_us" "us" (cnt "pipeline.verify") (mean "pipeline.verify");
    m "pipeline.analyze_geometric_us" "us" (cnt "pipeline.analyze_geometric")
      (mean "pipeline.analyze_geometric");
    m ~derived:true "pipeline.link_us" "us" (cnt "pipeline.load_ebpf.cold")
      (mean "pipeline.load_ebpf.cold" -. stages);
    m "pipeline.cold_us" "us" (cnt "pipeline.load_ebpf.cold") (mean "pipeline.load_ebpf.cold");
    m "pipeline.hit_us" "us" (cnt "pipeline.load_ebpf.hit") (mean "pipeline.load_ebpf.hit");
    m "pipeline.validate_us" "us" (cnt "pipeline.validate") (mean "pipeline.validate");
    m "pipeline.reject_us" "us" (cnt "pipeline.load_ebpf.reject")
      (mean "pipeline.load_ebpf.reject");
    m "verifier.insns_processed_per_load" "count" (cnt "pipeline.verify")
      (ratio (float !processed) (float (cnt "pipeline.verify")));
    m "verifier.states_explored_per_load" "count" (cnt "pipeline.verify")
      (ratio (float !explored) (float (cnt "pipeline.verify")));
    m "verifier.prune_hit_ratio" "ratio" (cnt "pipeline.verify")
      (ratio (float !pruned) (float (!pruned + !explored)));
    m "verifier.us_per_insn_processed" "us" (cnt "pipeline.verify")
      (ratio (Trace.total_us "pipeline.verify") (float !processed));
    m "epoch.publish_us" "us" (cnt "epoch.publish") (mean "epoch.publish");
    m "epoch.live_bytes_per_publish" "B" live_publishes live_per_publish;
    m "sha256.mb_per_s" "MB/s" sha_reps
      (ratio (float (sha_reps * String.length blob)) (Trace.total_us "sha256.digest")) ]
