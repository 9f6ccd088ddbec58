(* The serving engine: one plan API, one per-event server, two drivers.

   The shape of one served stream (hook, event count, generator, chaos
   schedule, reload schedule, sharding) is a [plan] value built by smart
   constructors, and [run] executes it.  Every event, however it is
   driven, goes through the same [server]: it fans the event out to the
   segment's attachments under supervision and folds each outcome into
   the event's own slot.

   ---- two drivers ----

   - inline ([run] with [plan.domains = 1]): the calling domain walks the
     stream and calls the server directly — no queue, no extra domain —
     on the engine's own world, invocation context and supervisor, so
     supervision state and quarantine detaches carry across runs on one
     engine.
   - sharded ([domains > 1], or [sharded] for any count): the calling
     domain is the coordinator.  It walks the stream in original order
     (the generator is stateful, so order is identity), partitions each
     event to a shard by flow hash (or round robin) and enqueues it on
     that shard's bounded queue (Shard).  Each shard domain runs a server
     over a *private* machine: a shard World (fresh simulated kernel, the
     map topology recreated with shard-local storage, a copy of the bug
     database — see World.shard_of), a private pooled invocation context,
     a private Supervisor, and a private Telemetry.Registry installed
     domain-locally and folded into the caller's at the barrier.
     Quarantine benches an extension on that shard only.

   ---- segments and epochs ----

   What both drivers share is the published program state: the base
   world's epoch chain.  The stream is cut into segments at the distinct
   reload boundaries, and a segment-control table (one mutex) lazily
   applies reload groups in boundary order the first time a server needs
   a segment, capturing that segment's published snapshot and its
   attachment list.  Every invocation pins its segment's snapshot
   (Invoke.run ?snap).  Each captured snapshot stays retained until the
   stream ends, so a superseded epoch retires when its segment's pin is
   released at stream end, on either driver.

   ---- determinism ----

   Per-event work is deterministic in the ORIGINAL event index: the
   generator is consumed in order by the driver, chaos injection is a
   pure function of (seed, index), and each event's outcome fold is
   written to a slot private to its index.  The stream checksum is then
   reconstructed from the slots: with k_i invocations folding to e_i on
   event i,

     g_i = g_{i-1} * 31^{k_i} + e_i

   so N shards, 1 shard and the inline driver all agree, for any N (the
   qcheck oracle asserts this).

   The guarantee is scoped honestly: it holds for extensions whose
   per-event outcome does not read simulation state mutated by *other*
   events (map contents are shard-local, per-CPU-map style; the virtual
   clocks of different shards advance independently).  Under [Supervise]
   breaker state evolves per shard in shard-local observation order, so
   scorecards are per-shard honest but not shard-count invariant; the
   oracle therefore runs under [Isolate].  [Fail_fast] sharded is a
   best-effort broadcast abort, not an exact replay of the inline
   prefix. *)

module Kernel = Kernel_sim.Kernel
module Vclock = Kernel_sim.Vclock
module Registry = Telemetry.Registry
module Clock = Telemetry.Clock

(* ---- engine ---- *)

type policy =
  | Fail_fast             (* first crash aborts the stream, kernel stays dead *)
  | Isolate               (* contain crashes per invocation, keep serving *)
  | Supervise of Supervisor.config
                          (* isolate + circuit breakers + quarantine *)

type engine = {
  world : World.t;
  attach : Attach.t;
  ictx : Invoke.t;
  opts : Invoke.run_opts;
  policy : policy;
  sup : Supervisor.t;
}

let sup_config = function
  | Supervise c -> c
  | Fail_fast | Isolate -> Supervisor.default_config

let create ?(opts = Invoke.default_opts) ?(policy = Isolate) (w : World.t) =
  { world = w; attach = Attach.create (); ictx = Invoke.create w; opts; policy;
    sup = Supervisor.create ~config:(sup_config policy) () }

type reload = engine -> Epoch.builder -> unit

(* ---- synthetic events ---- *)

(* Deterministic packet stream: xorshift64* seeded per stream, byte [0] of
   each packet carries the low bits of the event index so attached filters
   can discriminate.  STATEFUL: packet [i] depends on how many packets were
   generated before it, so a generator must be consumed in order, once —
   which is why [plan] mints a fresh one per call. *)
let synthetic_packets ?(seed = 0x9e3779b97f4a7c15L) ~size () =
  let state = ref (if Int64.equal seed 0L then 1L else seed) in
  let next () =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    x
  in
  fun i ->
    let b = Bytes.create size in
    for off = 0 to size - 1 do
      Bytes.set b off (Char.chr (Int64.to_int (next ()) land 0xff))
    done;
    if size > 0 then Bytes.set b 0 (Char.chr (i land 0xff));
    b

(* ---- the plan ---- *)

type partition = Flow_hash | Round_robin

type plan = {
  hook : string;
  count : int;
  gen : int -> Bytes.t;
  domains : int;
  chaos : Chaos.config option;
  reloads : (int * reload) list;
  record_checksums : bool;
  queue_capacity : int;
  overflow : Shard.overflow;
  partition : partition;
}

let plan ?seed ?(size = 64) ?gen ?(domains = 1) ?chaos ?(reloads = [])
    ?(record_checksums = false) ?(queue_capacity = 256)
    ?(overflow = Shard.Block) ?(partition = Flow_hash) ~hook ~count () =
  if count < 0 then invalid_arg "Serve.plan: count must be >= 0";
  if domains < 1 then invalid_arg "Serve.plan: domains must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Serve.plan: queue_capacity must be >= 1";
  let gen =
    match gen with
    | Some g ->
      if seed <> None then
        invalid_arg "Serve.plan: ~seed is meaningless with an explicit ~gen";
      g
    | None -> synthetic_packets ?seed ~size ()
  in
  { hook; count; gen; domains; chaos; reloads; record_checksums;
    queue_capacity; overflow; partition }

(* A function, not a value: the default generator is stateful, so every
   default plan needs a fresh one. *)
let default ~hook ~count = plan ~hook ~count ()

(* ---- stats ---- *)

type totals = {
  events : int;
  invocations : int;
  finished : int;
  stopped : int;
  crashed : int;
  exhausted : int;
  skipped : int;          (* invocations suppressed by an open breaker *)
  faults_absorbed : int;  (* crashes + exhaustions contained (not Fail_fast) *)
  quarantined : int;      (* extensions detached/benched during the stream *)
  injected : int;         (* chaos injections that landed on an event *)
  dropped : int;          (* events lost to Drop_newest queue overflow *)
  reloads : int;          (* reload plans applied (epoch swaps published) *)
  ret_checksum : int64;   (* order-sensitive fold of all outcomes *)
  host_ns : int64;        (* wall time for the whole stream *)
  events_per_sec : float;
  per_epoch : (int * int) list;  (* epoch -> events served under it *)
}

type shard_stats = {
  shard : int;
  s_events : int;
  s_invocations : int;
  s_finished : int;
  s_stopped : int;
  s_crashed : int;
  s_exhausted : int;
  s_skipped : int;
  s_faults_absorbed : int;
  s_quarantined : int;
  s_injected : int;
  s_dropped : int;            (* events this shard's queue rejected *)
  s_queue_peak : int;
  s_backpressure_waits : int;
  s_host_ns : int64;          (* wall time of this shard's worker *)
  s_per_ext : Supervisor.health list;  (* this shard's private scorecard *)
}

type stats = {
  domains : int;
  totals : totals;
  per_ext : Supervisor.health list;
      (* digest-keyed merge of the per-shard scorecards *)
  per_shard : shard_stats list;  (* ascending shard index; [] inline *)
  event_checksums : int64 array;
      (* per-event outcome folds at original indices (record_checksums) *)
}

let all_healthy s =
  s.totals.crashed = 0 && s.totals.exhausted = 0 && s.totals.stopped = 0
  && s.totals.skipped = 0 && s.totals.quarantined = 0
  && s.totals.dropped = 0

let pp_totals ppf t =
  Format.fprintf ppf
    "events=%d invocations=%d finished=%d stopped=%d crashed=%d exhausted=%d \
     skipped=%d absorbed=%d quarantined=%d injected=%d dropped=%d reloads=%d \
     checksum=%016Lx rate=%.0f ev/s"
    t.events t.invocations t.finished t.stopped t.crashed t.exhausted
    t.skipped t.faults_absorbed t.quarantined t.injected t.dropped t.reloads
    t.ret_checksum t.events_per_sec

let pp_shard ppf s =
  Format.fprintf ppf
    "shard %d: events=%d invocations=%d finished=%d crashed=%d exhausted=%d \
     skipped=%d injected=%d dropped=%d qpeak=%d waits=%d"
    s.shard s.s_events s.s_invocations s.s_finished s.s_crashed s.s_exhausted
    s.s_skipped s.s_injected s.s_dropped s.s_queue_peak s.s_backpressure_waits

let pp_stats ppf s =
  Format.fprintf ppf "%a" pp_totals s.totals;
  List.iter (fun sh -> Format.fprintf ppf "@.%a" pp_shard sh) s.per_shard

(* ---- shared helpers ---- *)

let checksum_add acc = function
  | Invoke.Finished v -> Int64.add (Int64.mul acc 31L) v
  | Invoke.Stopped _ -> Int64.add (Int64.mul acc 31L) (-1L)
  | Invoke.Crashed _ -> Int64.add (Int64.mul acc 31L) (-2L)
  | Invoke.Exhausted _ -> Int64.add (Int64.mul acc 31L) (-3L)

(* FNV-1a over the payload: the stand-in for a real flow key (5-tuple). *)
let flow_hash (b : Bytes.t) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  Int64.to_int (Int64.logand !h 0x3fffffff_ffffffffL)

let shard_for p ~nshards ~index payload =
  match p.partition with
  | Round_robin -> index mod nshards
  | Flow_hash -> flow_hash payload mod nshards

(* ---- segment control ---- *)

(* Segment control: the stream cut at the distinct reload boundaries.
   Segment [s] is the run of events between boundary [s-1] (inclusive)
   and boundary [s] (exclusive); its world view is the snapshot published
   after applying the first [s] reload groups.  Groups are applied
   lazily, in boundary order, under one mutex, the first time any server
   needs the segment; each segment's snapshot is retained until stream
   end (so it can never retire while a server still serves it), and its
   attachment list is materialized once. *)

type seg_entry = {
  seg_snap : Epoch.snapshot;
  seg_attach : Attach.attachment array;  (* in attach order *)
}

type segctl = {
  sc_lock : Mutex.t;
  sc_boundaries : int array;  (* sorted distinct reload indices *)
  sc_engine : engine;
  sc_plan : plan;
  mutable sc_applied : int;   (* reload groups applied so far *)
  sc_entries : seg_entry option array;  (* one slot per segment *)
  mutable sc_reloads : int;   (* individual reload plans applied *)
}

let segctl_create e p =
  let boundaries =
    List.filter_map
      (fun (idx, _) -> if idx >= 0 && idx < p.count then Some idx else None)
      p.reloads
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  { sc_lock = Mutex.create (); sc_boundaries = boundaries; sc_engine = e;
    sc_plan = p; sc_applied = 0;
    sc_entries = Array.make (Array.length boundaries + 1) None;
    sc_reloads = 0 }

(* Segment of event [i]: how many boundaries are <= i. *)
let segment_of ctl i =
  let b = ctl.sc_boundaries in
  let lo = ref 0 and hi = ref (Array.length b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if b.(mid) <= i then lo := mid + 1 else hi := mid
  done;
  !lo

let capture_segment ctl k =
  if ctl.sc_entries.(k) = None then begin
    let e = ctl.sc_engine in
    let store = e.world.World.epochs in
    let snap = Epoch.retain store (Epoch.current store) in
    let attach =
      Array.of_list (Attach.attached e.attach ~hook:ctl.sc_plan.hook)
    in
    ctl.sc_entries.(k) <- Some { seg_snap = snap; seg_attach = attach }
  end

let apply_group ctl idx =
  let e = ctl.sc_engine in
  List.iter
    (fun (_, rplan) ->
      let swap_started = Clock.host_ns () in
      let b = Epoch.begin_ e.world.World.epochs in
      rplan e b;
      ignore (Epoch.publish b);
      (* name-resolved so the swap is credited to the registry of
         whichever server triggered the lazy application *)
      Registry.observe_name "epoch.swap_ns"
        (Int64.sub (Clock.host_ns ()) swap_started);
      Registry.incr_name "dispatch.reloads";
      ctl.sc_reloads <- ctl.sc_reloads + 1)
    (List.filter (fun (i, _) -> i = idx) ctl.sc_plan.reloads)

let ensure_segment ctl s =
  Mutex.protect ctl.sc_lock @@ fun () ->
  while ctl.sc_applied < s do
    (* freeze the current segment's view before advancing past it *)
    capture_segment ctl ctl.sc_applied;
    apply_group ctl ctl.sc_boundaries.(ctl.sc_applied);
    ctl.sc_applied <- ctl.sc_applied + 1
  done;
  capture_segment ctl s;
  Option.get ctl.sc_entries.(s)

let release_segments ctl =
  Mutex.protect ctl.sc_lock @@ fun () ->
  Array.iteri
    (fun k entry ->
      match entry with
      | Some { seg_snap; _ } ->
        Epoch.release ctl.sc_engine.world.World.epochs seg_snap;
        ctl.sc_entries.(k) <- None
      | None -> ())
    ctl.sc_entries

(* What one server hands back at stream end (a shard's queue counters are
   read off the queue afterwards). *)
type served = {
  w_events : int;
  w_invocations : int;
  w_finished : int;
  w_stopped : int;
  w_crashed : int;
  w_exhausted : int;
  w_skipped : int;
  w_faults_absorbed : int;
  w_quarantined : int;
  w_injected : int;
  w_host_ns : int64;
  w_per_ext : Supervisor.health list;
  w_per_epoch : (int * int) list;
}

(* The per-event server: every event, inline or sharded, runs here,
   against [world] under the segment's pinned snapshot.  Returns the
   per-event [serve] function and the end-of-stream [finish].

   [ev_sums] / [ev_counts] are indexed by ORIGINAL event index; each slot
   is written by exactly one server (the one the event was routed to),
   so shards never write the same slot.  Each invocation's outcome is
   folded into its event's slot as soon as it returns, so a Fail_fast
   abort part-way through an event keeps the outcomes that already ran.
   A quarantined extension is benched for the rest of this server's
   stream, then handed to [on_quarantine]. *)
let server (e : engine) (p : plan) ctl ~(world : World.t) ~ictx ~sup
    ~on_quarantine ~(ev_sums : int64 array) ~(ev_counts : int array)
    ~(abort : bool Atomic.t) =
  let started = Clock.host_ns () in
  let kernel = world.World.kernel in
  let supervised = match e.policy with Supervise _ -> true | _ -> false in
  let benched : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  (* intern the hot handles in the registry current at stream start (a
     shard's own, or the caller's): name resolution here, raw bumps on
     the event path *)
  let tele_events = Registry.counter "dispatch.events" in
  let tele_invocations = Registry.counter "dispatch.invocations" in
  let tele_crashes = Registry.counter "dispatch.crashes" in
  let tele_stops = Registry.counter "dispatch.stops" in
  let tele_exhausted = Registry.counter "dispatch.exhausted" in
  let tele_skipped = Registry.counter "dispatch.skipped" in
  let tele_absorbed = Registry.counter "dispatch.faults_absorbed" in
  let tele_event_ns = Registry.histogram "dispatch.event_ns" in
  (* The event span's Vclock duration goes to an unregistered sink: the
     exported per-event time is [dispatch.event_ns] (host wall ns), and
     each extension's scorecard records its own Vclock latency. *)
  let span_sink = Telemetry.Histogram.make "dispatch.event" in
  (* each attachment's "dispatch.<ext>" span name and its ".ns" histogram,
     interned on first use and kept for the stream *)
  let ext_spans : (int, string * Telemetry.Histogram.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let ext_span (a : Attach.attachment) =
    match Hashtbl.find_opt ext_spans a.Attach.attach_id with
    | Some s -> s
    | None ->
      let span = "dispatch." ^ Attach.name a in
      let s = (span, Registry.histogram (span ^ ".ns")) in
      Hashtbl.add ext_spans a.Attach.attach_id s;
      s
  in
  let invocations = ref 0 and finished = ref 0 and stopped = ref 0 in
  let crashed = ref 0 and exhausted = ref 0 and skipped = ref 0 in
  let faults_absorbed = ref 0 and quarantined = ref 0 and injected = ref 0 in
  let events = ref 0 in
  let epoch_counts : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
  let vnow () = Vclock.now kernel.Kernel.clock in
  (* A contained fault: revive already happened (crash) or was unnecessary
     (exhaustion); charge the breaker and quarantine on its verdict. *)
  let contained_fault ext =
    incr faults_absorbed;
    Registry.bump tele_absorbed;
    if supervised then begin
      match Supervisor.observe_fault sup ext ~now_ns:(vnow ()) with
      | Supervisor.Quarantine ->
        let attach_id = ext.Supervisor.attach_id in
        Hashtbl.replace benched attach_id ();
        incr quarantined;
        on_quarantine attach_id
      | Supervisor.Tripped _ | Supervisor.No_change -> ()
    end
  in
  (* cache the last segment looked up: a server's event indices ascend, so
     segment lookups are monotone and the mutex is taken once per segment *)
  let cur_seg = ref (-1) in
  let cur_entry = ref None in
  let entry_for seg =
    if !cur_seg <> seg then begin
      cur_entry := Some (ensure_segment ctl seg);
      cur_seg := seg
    end;
    Option.get !cur_entry
  in
  (* Each event runs under a fresh causal trace on the simulated clock:
     dispatch.event > dispatch.<ext> > loader.run > interp/jit.run, with
     supervisor and chaos points landing inside whichever span was open
     when they fired. *)
  let process (i, seg, payload) =
    let { seg_snap; seg_attach } = entry_for seg in
    Registry.bump tele_events;
    let ev_started = Clock.host_ns () in
    incr events;
    (let ep = seg_snap.Epoch.epoch in
     match Hashtbl.find_opt epoch_counts ep with
     | Some r -> incr r
     | None -> Hashtbl.add epoch_counts ep (ref 1));
    (Registry.with_trace (Registry.fresh_trace ())
    @@ fun () ->
    Registry.with_span "dispatch.event" ~hist:span_sink ~clock:vnow
    @@ fun () ->
    let inj =
      match p.chaos with
      | None -> Chaos.Calm
      | Some c -> Chaos.injection c ~event:i
    in
    if inj <> Chaos.Calm then incr injected;
    let opts =
      Chaos.apply_opts inj { e.opts with Invoke.skb_payload = Some payload }
    in
    Chaos.arm inj world.World.bugs;
    Fun.protect ~finally:(fun () -> Chaos.disarm inj world.World.bugs)
    @@ fun () ->
    Array.iter
      (fun (a : Attach.attachment) ->
        if not (Hashtbl.mem benched a.Attach.attach_id) then begin
          let name = Attach.name a in
          let ext =
            (* digest-keyed: the same image keeps its breaker history
               across detach/re-attach and epoch swaps *)
            Supervisor.ext sup ~digest:a.Attach.digest
              ~attach_id:a.Attach.attach_id ~name
          in
          let decision =
            if supervised then Supervisor.decide sup ext ~now_ns:(vnow ())
            else Supervisor.Execute
          in
          let span, hist = ext_span a in
          Registry.with_span span ~hist ~clock:vnow
          @@ fun () ->
          match decision with
          | Supervisor.Skip ->
            (* breaker open: fast-fail, span still closes *)
            Registry.point "dispatch.skip"
              ~value:(Int64.of_int a.Attach.attach_id);
            Supervisor.observe_skip ext;
            incr skipped;
            Registry.bump tele_skipped
          | Supervisor.Execute | Supervisor.Probe ->
            Registry.bump tele_invocations;
            let inv_started = vnow () in
            let r = Invoke.run ~opts ~ictx ~snap:seg_snap world a.Attach.loaded in
            (* scorecard latency: Vclock cost of this invocation, recorded
               whether or not tracing retained the spans *)
            Registry.observe ext.Supervisor.lat
              (Int64.sub (vnow ()) inv_started);
            incr invocations;
            ev_sums.(i) <- checksum_add ev_sums.(i) r.Invoke.outcome;
            ev_counts.(i) <- ev_counts.(i) + 1;
            ext.Supervisor.invocations <- ext.Supervisor.invocations + 1;
            ext.Supervisor.ret_checksum <-
              checksum_add ext.Supervisor.ret_checksum r.Invoke.outcome;
            (match r.Invoke.outcome with
            | Invoke.Finished _ ->
              incr finished;
              ext.Supervisor.finished <- ext.Supervisor.finished + 1;
              if supervised then Supervisor.observe_ok sup ext ~now_ns:(vnow ())
            | Invoke.Stopped _ ->
              (* a language panic is a clean self-stop, not a fault *)
              Registry.bump tele_stops;
              incr stopped;
              ext.Supervisor.stopped <- ext.Supervisor.stopped + 1;
              if supervised then Supervisor.observe_ok sup ext ~now_ns:(vnow ())
            | Invoke.Crashed _ -> (
              Registry.bump tele_crashes;
              incr crashed;
              ext.Supervisor.crashed <- ext.Supervisor.crashed + 1;
              match e.policy with
              | Fail_fast ->
                (* abort the stream; this machine's kernel stays dead *)
                Atomic.set abort true;
                raise Exit
              | Isolate | Supervise _ ->
                ignore (Kernel.revive kernel);
                contained_fault ext)
            | Invoke.Exhausted _ ->
              Registry.bump tele_exhausted;
              incr exhausted;
              ext.Supervisor.exhausted <- ext.Supervisor.exhausted + 1;
              (match e.policy with
              | Fail_fast -> ()  (* guards cleaned up; keep serving *)
              | Isolate | Supervise _ -> contained_fault ext))
        end)
      seg_attach);
    Registry.observe tele_event_ns (Int64.sub (Clock.host_ns ()) ev_started)
  in
  let serve ev = try process ev with Exit -> () in
  let finish () =
    {
      w_events = !events;
      w_invocations = !invocations;
      w_finished = !finished;
      w_stopped = !stopped;
      w_crashed = !crashed;
      w_exhausted = !exhausted;
      w_skipped = !skipped;
      w_faults_absorbed = !faults_absorbed;
      w_quarantined = !quarantined;
      w_injected = !injected;
      w_host_ns = Int64.sub (Clock.host_ns ()) started;
      w_per_ext = Supervisor.healths sup;
      w_per_epoch =
        Hashtbl.fold (fun ep r acc -> (ep, !r) :: acc) epoch_counts []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    }
  in
  (serve, finish)

(* ---- stats assembly, shared by both drivers ---- *)

(* Exact reconstruction of the order-sensitive stream checksum from the
   per-event folds: g_i = g_{i-1} * 31^{k_i} + e_i.  Slots of dropped or
   never-served events hold (k = 0, e = 0), which leaves the fold
   unchanged — such an event simply never happened. *)
let recombine ~(ev_sums : int64 array) ~(ev_counts : int array) =
  let acc = ref 0L in
  for i = 0 to Array.length ev_sums - 1 do
    for _ = 1 to ev_counts.(i) do
      acc := Int64.mul !acc 31L
    done;
    acc := Int64.add !acc ev_sums.(i)
  done;
  !acc

let merge_per_epoch per_server =
  let tbl : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (ep, n) ->
         match Hashtbl.find_opt tbl ep with
         | Some r -> r := !r + n
         | None -> Hashtbl.add tbl ep (ref n)))
    per_server;
  Hashtbl.fold (fun ep r acc -> (ep, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let assemble (p : plan) ctl ~started ~ev_sums ~ev_counts ~per_ext ~per_shard
    (results : served list) =
  let elapsed = Int64.sub (Clock.host_ns ()) started in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let events = sum (fun r -> r.w_events) in
  let rate =
    if Int64.compare elapsed 0L > 0 then
      float_of_int events /. (Int64.to_float elapsed /. 1e9)
    else 0.
  in
  (* export the latest stream's throughput (counter-as-gauge) *)
  let tele_rate = Registry.counter "dispatch.events_per_sec" in
  Telemetry.Counter.reset tele_rate;
  Registry.incr tele_rate ~n:(int_of_float rate);
  let totals =
    {
      events;
      invocations = sum (fun r -> r.w_invocations);
      finished = sum (fun r -> r.w_finished);
      stopped = sum (fun r -> r.w_stopped);
      crashed = sum (fun r -> r.w_crashed);
      exhausted = sum (fun r -> r.w_exhausted);
      skipped = sum (fun r -> r.w_skipped);
      faults_absorbed = sum (fun r -> r.w_faults_absorbed);
      quarantined = sum (fun r -> r.w_quarantined);
      injected = sum (fun r -> r.w_injected);
      dropped = List.fold_left (fun acc s -> acc + s.s_dropped) 0 per_shard;
      reloads = ctl.sc_reloads;
      ret_checksum = recombine ~ev_sums ~ev_counts;
      host_ns = elapsed;
      events_per_sec = rate;
      per_epoch = merge_per_epoch (List.map (fun r -> r.w_per_epoch) results);
    }
  in
  { domains = p.domains; totals; per_ext; per_shard;
    event_checksums = (if p.record_checksums then ev_sums else [||]) }

(* ---- drivers ---- *)

let run_inline (e : engine) (p : plan) : stats =
  let started = Clock.host_ns () in
  let ctl = segctl_create e p in
  let ev_sums = Array.make (max p.count 0) 0L in
  let ev_counts = Array.make (max p.count 0) 0 in
  let abort = Atomic.make false in
  let serve, finish =
    server e p ctl ~world:e.world ~ictx:e.ictx ~sup:e.sup
      ~on_quarantine:(fun attach_id ->
        ignore (Attach.detach e.attach ~attach_id))
      ~ev_sums ~ev_counts ~abort
  in
  let i = ref 0 in
  while !i < p.count && not (Atomic.get abort) do
    serve (!i, segment_of ctl !i, p.gen !i);
    incr i
  done;
  let r = finish () in
  release_segments ctl;
  assemble p ctl ~started ~ev_sums ~ev_counts ~per_ext:r.w_per_ext
    ~per_shard:[] [ r ]

(* One shard domain: a server over a private machine, fed from the
   shard's queue.  After a Fail_fast abort the loop keeps draining —
   discarding events — so a Block-mode producer can never deadlock
   against a stopped consumer. *)
let shard_worker (e : engine) (p : plan) ctl queue ~ev_sums ~ev_counts ~abort
    () =
  let world = World.shard_of e.world in
  let serve, finish =
    server e p ctl ~world ~ictx:(Invoke.create world)
      ~sup:(Supervisor.create ~config:(sup_config e.policy) ())
      ~on_quarantine:ignore ~ev_sums ~ev_counts ~abort
  in
  let rec drain () =
    match Shard.pop queue with
    | None -> ()
    | Some ev ->
      if not (Atomic.get abort) then serve ev;
      drain ()
  in
  drain ();
  finish ()

let sharded (e : engine) (p : plan) : stats =
  let n = p.domains in
  let started = Clock.host_ns () in
  let ctl = segctl_create e p in
  let ev_sums = Array.make (max p.count 0) 0L in
  let ev_counts = Array.make (max p.count 0) 0 in
  let abort = Atomic.make false in
  let queues =
    Array.init n (fun _ -> Shard.create ~capacity:p.queue_capacity p.overflow)
  in
  let registries =
    Array.init n (fun k ->
        Registry.create ~label:(Printf.sprintf "shard-%d" k) ())
  in
  let home = Registry.current () in
  let doms =
    Array.init n (fun k ->
        Domain.spawn (fun () ->
            Registry.using registries.(k)
              (shard_worker e p ctl queues.(k) ~ev_sums ~ev_counts ~abort)))
  in
  (* The coordinator is the single producer: the stateful generator is
     consumed in original order, so event [i]'s payload is identical to
     what the inline driver would have fed it. *)
  (try
     for i = 0 to p.count - 1 do
       if Atomic.get abort then raise Exit;
       let payload = p.gen i in
       let shard = shard_for p ~nshards:n ~index:i payload in
       ignore (Shard.push queues.(shard) (i, segment_of ctl i, payload))
     done
   with Exit -> ());
  Array.iter Shard.close queues;
  let results = Array.to_list (Array.map Domain.join doms) in
  (* barrier: fold every shard's registry into the caller's, release the
     segment pins so superseded epochs can finish their grace periods *)
  Array.iter (fun reg -> Registry.merge reg ~into:home) registries;
  release_segments ctl;
  let per_shard =
    List.mapi
      (fun k r ->
        let q = queues.(k) in
        {
          shard = k;
          s_events = r.w_events;
          s_invocations = r.w_invocations;
          s_finished = r.w_finished;
          s_stopped = r.w_stopped;
          s_crashed = r.w_crashed;
          s_exhausted = r.w_exhausted;
          s_skipped = r.w_skipped;
          s_faults_absorbed = r.w_faults_absorbed;
          s_quarantined = r.w_quarantined;
          s_injected = r.w_injected;
          s_dropped = Shard.dropped q;
          s_queue_peak = Shard.peak q;
          s_backpressure_waits = Shard.backpressure_waits q;
          s_host_ns = r.w_host_ns;
          s_per_ext = r.w_per_ext;
        })
      results
  in
  assemble p ctl ~started ~ev_sums ~ev_counts
    ~per_ext:(Supervisor.merge_healths (List.map (fun r -> r.w_per_ext) results))
    ~per_shard results

let run e (p : plan) = if p.domains = 1 then run_inline e p else sharded e p
