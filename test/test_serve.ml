(* Serve tests: the sharded determinism oracle (N-domain sharded ≡
   1-domain sharded ≡ sequential, for stateless filter populations under
   Isolate), plan validation, queue overflow accounting, cross-domain
   epoch grace, the telemetry registry merge the shard barrier relies
   on, and the per-attachment work done once rather than per event (the
   content digest at attach, JIT images once per epoch). *)

open Untenable
module World = Framework.World
module Serve = Framework.Serve
module Shard = Framework.Shard
module Epoch = Framework.Epoch
module Chaos = Framework.Chaos
module Supervisor = Framework.Supervisor
module Attach = Framework.Attach
module Invoke = Framework.Invoke
module Pipeline = Framework.Pipeline
open Ebpf.Asm

(* The stateless three-filter engine, the hot-reload hook and the reload
   schedule all live in the shared scaffolding. *)
let build_engine = Generators.build_serve_engine
let reload_schedule = Generators.reload_schedule

(* ---------------- per-attachment work, done once ---------------- *)

let jit_compiles () =
  Telemetry.Counter.value (Telemetry.Registry.counter "jit.compiles")

(* Telemetry can be switched off by other tests; these read a counter. *)
let with_telemetry f =
  let was = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was) f

let test_digest_at_attach () =
  let engine = Generators.build_dispatch_engine ~with_crasher:true () in
  let reg = engine.Serve.attach in
  List.iter
    (fun (a : Attach.attachment) ->
      Alcotest.(check bool) "digest is stored, not recomputed" true
        (Attach.digest a == Attach.digest a);
      match a.Attach.loaded with
      | Pipeline.Ebpf_prog { prog; _ } ->
        Alcotest.(check string) "digest of the loaded image"
          (Ebpf.Program.digest prog) (Attach.digest a)
      | Pipeline.Rustlite_ext _ -> Alcotest.fail "expected eBPF attachments")
    (Attach.attached reg ~hook:"xdp");
  let ext =
    Result.get_ok
      (Rustlite.Toolchain.compile
         { Rustlite.Toolchain.name = "one"; maps = [];
           body = Rustlite.Ast.Lit_int 1L })
  in
  let a =
    match Pipeline.load_rustlite engine.Serve.world ext with
    | Ok l -> Attach.attach reg ~hook:"tp" l
    | Error e -> Alcotest.failf "%a" Pipeline.pp_error e
  in
  Alcotest.(check string) "digest of the signed artifact"
    (Rustlite.Toolchain.artifact_digest ext) (Attach.digest a)

let test_reattach_keeps_breaker () =
  let engine =
    Generators.build_dispatch_engine
      ~policy:(Serve.Supervise Supervisor.default_config) ~with_crasher:true ()
  in
  let reg = engine.Serve.attach in
  let run count =
    ignore (Serve.run engine (Serve.plan ~size:32 ~hook:"xdp" ~count ()))
  in
  let crasher = List.hd (Attach.attached reg ~hook:"xdp") in
  let record (a : Attach.attachment) =
    Supervisor.ext engine.Serve.sup ~digest:(Attach.digest a)
      ~attach_id:a.Attach.attach_id ~name:(Attach.name a)
  in
  run 5;
  let before = record crasher in
  Alcotest.(check bool) "breaker tripped" true (before.Supervisor.trips > 0);
  Alcotest.(check bool) "detached" true
    (Attach.detach reg ~attach_id:crasher.Attach.attach_id);
  let again = Attach.attach reg ~hook:"xdp" crasher.Attach.loaded in
  Alcotest.(check bool) "new attach id" true
    (again.Attach.attach_id <> crasher.Attach.attach_id);
  Alcotest.(check string) "same digest" (Attach.digest crasher)
    (Attach.digest again);
  run 1;
  let after = record again in
  Alcotest.(check bool) "same breaker record" true (after == before);
  Alcotest.(check int) "record rebound to the new attach id"
    again.Attach.attach_id after.Supervisor.attach_id;
  Alcotest.(check int) "no second record" 3
    (List.length (Supervisor.exts engine.Serve.sup))

(* A publish that leaves the attachments as they are. *)
let keep_filters _ b =
  Epoch.set_tail_call b ~index:7 ~prog_id:1

let test_jit_compiles_once_per_epoch () =
  with_telemetry @@ fun () ->
  let run ~use_jit =
    let engine =
      Generators.build_serve_engine
        ~opts:{ Invoke.default_opts with Invoke.use_jit } ()
    in
    Serve.run engine
      (Serve.plan ~seed:11L ~size:48
         ~reloads:[ (50, keep_filters); (150, keep_filters) ]
         ~hook:"xdp" ~count:200 ())
  in
  let interp = run ~use_jit:false in
  let c0 = jit_compiles () in
  let jit = run ~use_jit:true in
  Alcotest.(check int) "two reloads applied" 2 jit.Serve.totals.Serve.reloads;
  Alcotest.(check int) "3 filters x 3 epochs" 9 (jit_compiles () - c0);
  Alcotest.(check int64) "JIT serves what the interpreter serves"
    interp.Serve.totals.Serve.ret_checksum jit.Serve.totals.Serve.ret_checksum

(* The CVE-2021-29154 shape: with the branch bug the backward jump lands
   one instruction short and the loop never ends. *)
let test_jit_cache_keeps_branch_bug () =
  with_telemetry @@ fun () ->
  let world = World.create_populated () in
  let loaded =
    Generators.load world "loop" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r0 0; mov_i r6 5; label "l"; add_i r0 1; sub_i r6 1;
        jne_i r6 0 "l"; exit_ ]
  in
  let ictx = Invoke.create world in
  let run jit_branch_bug =
    let opts =
      { Invoke.default_opts with
        Invoke.use_jit = true; jit_branch_bug; fuel = Some 10_000L }
    in
    (Invoke.run ~opts ~ictx world loaded).Invoke.outcome
  in
  let c0 = jit_compiles () in
  let clean () =
    match run false with
    | Invoke.Finished 5L -> ()
    | o -> Alcotest.failf "clean JIT: %a" Invoke.pp_outcome o
  in
  clean ();
  (match run true with
  | Invoke.Exhausted (Invoke.Fuel, _) -> ()
  | o -> Alcotest.failf "buggy JIT should hang, got %a" Invoke.pp_outcome o);
  clean ();
  Alcotest.(check int) "one image per flag value" 2 (jit_compiles () - c0)

(* ---------------- the determinism oracle ---------------- *)

let determinism_oracle =
  QCheck.Test.make ~count:12
    ~name:"sharded run reconstructs the sequential checksum exactly"
    QCheck.(quad (int_range 1 5) (int_range 1 120) bool (int_range 0 2))
    (fun (domains, count, with_chaos, reloads) ->
      let chaos =
        if with_chaos then
          Some { Chaos.default_config with Chaos.fault_rate = 0.05 }
        else None
      in
      let partition =
        if count mod 2 = 0 then Serve.Flow_hash else Serve.Round_robin
      in
      let mk () =
        Serve.plan ?chaos ~domains
          ~reloads:(reload_schedule ~count ~reloads)
          ~record_checksums:true ~partition ~size:48 ~hook:"xdp" ~count ()
      in
      (* sequential reference on a fresh engine *)
      let seq =
        Serve.run (build_engine ())
          (Serve.plan ?chaos
             ~reloads:(reload_schedule ~count ~reloads)
             ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
      in
      (* the same stream forced through the sharded machinery *)
      let par = Serve.sharded (build_engine ()) (mk ()) in
      par.Serve.totals.Serve.events = count
      && par.Serve.totals.Serve.reloads = reloads
      && Int64.equal par.Serve.totals.Serve.ret_checksum
           seq.Serve.totals.Serve.ret_checksum
      && par.Serve.event_checksums = seq.Serve.event_checksums)

(* The sequential and sharded drivers run the same per-event server, so
   a Fail_fast abort part-way through an event keeps the outcomes that
   already ran on both: the armed crasher is attached first, crashes on
   event 0, and the stream ends there. *)
let test_fail_fast_agrees () =
  let run serve =
    let engine =
      Generators.build_dispatch_engine ~policy:Serve.Fail_fast
        ~with_crasher:true ()
    in
    (serve engine (Serve.plan ~size:32 ~hook:"xdp" ~count:10 ())).Serve.totals
  in
  let seq = run Serve.run in
  let par = run Serve.sharded in
  Alcotest.(check int64) "sequential checksum holds the crash" (-2L)
    seq.Serve.ret_checksum;
  Alcotest.(check int64) "sharded checksum holds the crash" (-2L)
    par.Serve.ret_checksum;
  Alcotest.(check int) "sequential stops after the first event" 1
    seq.Serve.events;
  Alcotest.(check int) "sharded stops after the first event" 1
    par.Serve.events

(* The dispatch.* counters land in the registry that is current when the
   run starts, whatever the domain count. *)
let test_registry_scoping () =
  with_telemetry @@ fun () ->
  let open Telemetry in
  let count = 50 in
  let events r = Counter.value (Registry.counter_in r "dispatch.events") in
  List.iter
    (fun domains ->
      let engine = build_engine () in
      let scoped = Registry.create ~label:"scoped" () in
      let global_before = events Registry.global in
      let s =
        Registry.using scoped (fun () ->
            Serve.run engine
              (Serve.plan ~domains ~size:48 ~hook:"xdp" ~count ()))
      in
      let what = Printf.sprintf "%d domain(s): " domains in
      Alcotest.(check int) (what ^ "events served") count
        s.Serve.totals.Serve.events;
      Alcotest.(check int) (what ^ "events recorded in the scoped registry")
        count (events scoped);
      Alcotest.(check int) (what ^ "global registry untouched") global_before
        (events Registry.global))
    [ 1; 2 ]

(* ---------------- plan validation ---------------- *)

let test_plan_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "count < 0 rejected" true
    (raises (fun () -> Serve.plan ~hook:"xdp" ~count:(-1) ()));
  Alcotest.(check bool) "domains < 1 rejected" true
    (raises (fun () -> Serve.plan ~domains:0 ~hook:"xdp" ~count:1 ()));
  Alcotest.(check bool) "queue_capacity < 1 rejected" true
    (raises (fun () -> Serve.plan ~queue_capacity:0 ~hook:"xdp" ~count:1 ()));
  Alcotest.(check bool) "seed with gen rejected" true
    (raises (fun () ->
         Serve.plan ~seed:1L ~gen:(fun _ -> Bytes.create 8) ~hook:"xdp" ~count:1 ()));
  let p = Serve.default ~hook:"xdp" ~count:5 in
  Alcotest.(check int) "default domains" 1 p.Serve.domains;
  Alcotest.(check int) "default queue" 256 p.Serve.queue_capacity

(* ---------------- bounded queues ---------------- *)

let test_shard_queue_drop_newest () =
  let q = Shard.create ~capacity:2 Shard.Drop_newest in
  Alcotest.(check bool) "push 1" true (Shard.push q 1);
  Alcotest.(check bool) "push 2" true (Shard.push q 2);
  Alcotest.(check bool) "push 3 dropped" false (Shard.push q 3);
  Alcotest.(check int) "dropped counted" 1 (Shard.dropped q);
  Alcotest.(check int) "peak" 2 (Shard.peak q);
  Shard.close q;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Shard.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Shard.pop q);
  Alcotest.(check (option int)) "drained" None (Shard.pop q)

(* Sharded Drop_newest: every generated event is either served or counted
   as dropped, and drops leave the reconstructed checksum untouched for
   the events that were served. *)
let test_drop_newest_accounting () =
  let count = 400 in
  let r =
    Serve.sharded (build_engine ())
      (Serve.plan ~domains:3 ~queue_capacity:1 ~overflow:Shard.Drop_newest
         ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
  in
  let t = r.Serve.totals in
  Alcotest.(check int) "served + dropped = generated" count
    (t.Serve.events + t.Serve.dropped);
  let shard_drops =
    List.fold_left (fun a s -> a + s.Serve.s_dropped) 0 r.Serve.per_shard
  in
  Alcotest.(check int) "per-shard drops sum to the total" t.Serve.dropped
    shard_drops;
  (* a dropped event's slot stays at the fold-identity, so the recorded
     array still has one entry per generated event *)
  Alcotest.(check int) "one checksum slot per event" count
    (Array.length r.Serve.event_checksums)

(* A queue of capacity 1 is the tightest legal bound: the second push in
   a row must drop (and be counted) while the first still pops intact. *)
let test_shard_queue_capacity_one () =
  (match Shard.create ~capacity:0 Shard.Drop_newest with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  let q = Shard.create ~capacity:1 Shard.Drop_newest in
  Alcotest.(check bool) "push 1" true (Shard.push q 1);
  Alcotest.(check bool) "push 2 dropped" false (Shard.push q 2);
  Alcotest.(check bool) "push 3 dropped" false (Shard.push q 3);
  Alcotest.(check int) "both drops counted" 2 (Shard.dropped q);
  Alcotest.(check int) "peak is the capacity" 1 (Shard.peak q);
  Alcotest.(check int) "no producer waits under Drop_newest" 0
    (Shard.backpressure_waits q);
  Shard.close q;
  Alcotest.(check (option int)) "survivor pops" (Some 1) (Shard.pop q);
  Alcotest.(check (option int)) "drained" None (Shard.pop q)

(* Single-domain sharded plan over a capacity-1 Block queue: nothing may
   drop, the peak must cap at the capacity, and the stream must still
   reconstruct the sequential checksum exactly. *)
let test_single_domain_queue_counters () =
  let count = 100 in
  let seq =
    Serve.run (build_engine ())
      (Serve.plan ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
  in
  let r =
    Serve.sharded (build_engine ())
      (Serve.plan ~domains:1 ~queue_capacity:1 ~overflow:Shard.Block
         ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
  in
  let t = r.Serve.totals in
  Alcotest.(check int) "all events served" count t.Serve.events;
  Alcotest.(check int) "nothing dropped under Block" 0 t.Serve.dropped;
  (match r.Serve.per_shard with
  | [ s ] ->
    Alcotest.(check int) "peak capped at capacity" 1 s.Serve.s_queue_peak;
    Alcotest.(check int) "no shard drops" 0 s.Serve.s_dropped;
    Alcotest.(check bool) "wait counter is sane" true
      (s.Serve.s_backpressure_waits >= 0
      && s.Serve.s_backpressure_waits <= count)
  | l -> Alcotest.failf "expected one shard, got %d" (List.length l));
  Alcotest.(check int64) "checksum matches sequential"
    seq.Serve.totals.Serve.ret_checksum t.Serve.ret_checksum;
  Alcotest.(check bool) "per-event checksums match" true
    (r.Serve.event_checksums = seq.Serve.event_checksums)

(* ---------------- cross-domain epoch grace ---------------- *)

let test_multi_domain_grace () =
  let world = World.create_populated () in
  let store = world.World.epochs in
  let snap = Epoch.current store in
  (* two shard-like domains each retain the snapshot, as segment capture
     does; the pins must be visible across domains *)
  let d1 = Domain.spawn (fun () -> ignore (Epoch.retain store snap)) in
  let d2 = Domain.spawn (fun () -> ignore (Epoch.retain store snap)) in
  Domain.join d1;
  Domain.join d2;
  (* publish epoch 2: the genesis snapshot is superseded but still pinned *)
  let b = Epoch.begin_ store in
  ignore
    (Epoch.add_prog b
       (Ebpf.Program.of_items_exn ~name:"noop"
          ~prog_type:Ebpf.Program.Socket_filter [ mov_i r0 0; exit_ ]));
  ignore (Epoch.publish b);
  Alcotest.(check int) "grace pending while both shards pin" 1
    (Epoch.grace_pending store);
  Epoch.release store snap;
  Alcotest.(check int) "still pending after one shard unpins" 1
    (Epoch.grace_pending store);
  let d3 = Domain.spawn (fun () -> Epoch.release store snap) in
  Domain.join d3;
  Alcotest.(check int) "retired once every shard unpins" 0
    (Epoch.grace_pending store);
  Alcotest.(check int) "retired count" 1 (Epoch.retired store)

(* ---------------- registry merge ---------------- *)

let test_registry_merge () =
  let open Telemetry in
  let a = Registry.create ~label:"shard-a" () in
  let b = Registry.create ~label:"shard-b" () in
  Registry.using a (fun () ->
      Counter.incr ~n:3 (Registry.counter "m.count");
      Histogram.observe (Registry.histogram "m.ns") 8L;
      Histogram.observe (Registry.histogram "m.ns") 64L;
      Counter.incr (Registry.counter "m.only_a"));
  Registry.using b (fun () ->
      Counter.incr ~n:4 (Registry.counter "m.count");
      Histogram.observe (Registry.histogram "m.ns") 8L);
  Registry.merge a ~into:b;
  Registry.using b (fun () ->
      Alcotest.(check int) "counters sum" 7
        (Counter.value (Registry.counter "m.count"));
      Alcotest.(check int) "absent counters materialize" 1
        (Counter.value (Registry.counter "m.only_a"));
      let hist = Registry.histogram "m.ns" in
      Alcotest.(check int) "histogram counts sum" 3 (Histogram.count hist);
      Alcotest.(check int64) "histogram sums add" 80L (Histogram.sum hist);
      Alcotest.(check int64) "histogram max is max" 64L
        (Histogram.max_value hist));
  (* the source registry is left untouched *)
  Registry.using a (fun () ->
      Alcotest.(check int) "src counters unchanged" 3
        (Counter.value (Registry.counter "m.count")))

let test_ring_merge_drops () =
  let open Telemetry in
  let src = Ring.create ~capacity:4 in
  let dst = Ring.create ~capacity:2 in
  for i = 0 to 2 do
    Ring.push src ~time_ns:(Int64.of_int i) ~depth:0 ~trace:0 ~kind:Event.Point
      ~name:"x" ~value:0L
  done;
  Ring.push dst ~time_ns:99L ~depth:0 ~trace:0 ~kind:Event.Point ~name:"y"
    ~value:0L;
  Ring.merge_into ~src ~dst;
  (* dst held 1 of 2; one src event fits, two overflow and are counted *)
  Alcotest.(check int) "dst full" 2 (Ring.length dst);
  Alcotest.(check int) "overflow counted" 2 (Ring.dropped dst)

(* ---------------- scorecard merge ---------------- *)

let test_merge_healths () =
  let mk ~digest ~name ~finished ~crashed state =
    { Supervisor.attach_id = 1; digest; name;
      state; invocations = finished + crashed; finished; stopped = 0;
      crashed; exhausted = 0; skipped = 0; trips = 0; quarantined = false;
      crash_rate = 0.; exhaust_rate = 0.;
      p50_ns = 10L; p99_ns = 20L;
      ret_checksum = Int64.of_int (finished + crashed) }
  in
  let a = mk ~digest:"d1" ~name:"len" ~finished:5 ~crashed:0 Supervisor.Closed in
  let b =
    mk ~digest:"d1" ~name:"len" ~finished:3 ~crashed:2
      (Supervisor.Open { until_ns = 5L })
  in
  match Supervisor.merge_healths [ [ a ]; [ b ] ] with
  | [ m ] ->
    Alcotest.(check int) "invocations sum" 10 m.Supervisor.invocations;
    Alcotest.(check int) "finished sum" 8 m.Supervisor.finished;
    Alcotest.(check int) "crashed sum" 2 m.Supervisor.crashed;
    Alcotest.(check bool) "worst state wins" true
      (match m.Supervisor.state with Supervisor.Open _ -> true | _ -> false);
    Alcotest.(check int64) "checksums add" 10L m.Supervisor.ret_checksum
  | l -> Alcotest.failf "expected one merged row, got %d" (List.length l)

let suite =
  [
    QCheck_alcotest.to_alcotest determinism_oracle;
    Alcotest.test_case "Fail_fast: sequential = sharded" `Quick
      test_fail_fast_agrees;
    Alcotest.test_case "dispatch counters follow the current registry" `Quick
      test_registry_scoping;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "shard queue Drop_newest" `Quick test_shard_queue_drop_newest;
    Alcotest.test_case "sharded Drop_newest accounting" `Quick
      test_drop_newest_accounting;
    Alcotest.test_case "shard queue at capacity 1" `Quick
      test_shard_queue_capacity_one;
    Alcotest.test_case "single-domain queue counters" `Quick
      test_single_domain_queue_counters;
    Alcotest.test_case "cross-domain epoch grace" `Quick test_multi_domain_grace;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "ring merge drop accounting" `Quick test_ring_merge_drops;
    Alcotest.test_case "scorecard merge" `Quick test_merge_healths;
    Alcotest.test_case "digest computed once, at attach" `Quick
      test_digest_at_attach;
    Alcotest.test_case "re-attach keeps digest and breaker" `Quick
      test_reattach_keeps_breaker;
    Alcotest.test_case "JIT compiles once per epoch" `Quick
      test_jit_compiles_once_per_epoch;
    Alcotest.test_case "JIT cache keyed by the branch-bug flag" `Quick
      test_jit_cache_keeps_branch_bug;
  ]
