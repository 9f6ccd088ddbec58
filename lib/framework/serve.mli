(** The serving engine: a typed {!plan} describing one served event
    stream, and one per-event server that both execution drivers run.

    {2 Model}

    A {!plan} holds the shape of one stream: hook, event count,
    generator, chaos schedule, hot-reload schedule, and the sharding
    shape (domain count, queue bound, overflow policy, partition
    function), built by smart constructors.  Every event, however it is
    driven, goes through the same server: it fans the event out to the
    attachments of the event's segment, in attach order, under the
    engine's {!policy}, and folds each outcome into the event's own
    checksum slot as soon as the invocation returns.  {!run} picks the
    driver:

    - [domains = 1], inline: the calling domain calls the server
      directly — no queue, no extra domain — on the engine's own world,
      invocation context and supervisor.  Supervision state accumulates
      across runs on one engine, and a quarantined extension is detached
      from the engine's attach table.
    - [domains > 1] (or {!sharded}), sharded: the calling domain walks
      the stream in original order, partitions events to shards by flow
      hash over the payload (or round robin), and each shard domain runs
      the server over a private machine — a shard {!World.shard_of} (own
      kernel, shard-local map storage, own bug database), private
      invocation context, private {!Supervisor}, private
      {!Telemetry.Registry}.  A quarantined extension is benched on its
      shard only; the attach table is left alone.

    Both drivers share the base world's epoch chain.  Mid-stream reloads
    cut the stream into segments: reload groups apply lazily in boundary
    order under one lock, the first time a server needs the segment, and
    every invocation pins its segment's snapshot ({!Invoke.run}
    [?snap]).  Each segment's snapshot stays retained until the stream
    ends: a superseded epoch retires when its segment's pin is released
    at stream end, on either driver.

    {2 Determinism}

    Per-event work depends only on the original event index: the
    generator is consumed in order by the driver and chaos is a pure
    function of [(seed, index)].  Each event's outcome fold and
    invocation count land at its original index, and the stream checksum
    is reconstructed as [g_i = g_(i-1) * 31^(k_i) + e_i] — so N-shard,
    1-shard ({!sharded}) and inline runs agree, for extensions whose
    per-event outcome does not read state mutated by other events (map
    contents are shard-local, per-CPU style).  Under [Supervise] breaker
    state evolves in shard-local order (scorecards are honest per shard,
    not shard-count invariant); the determinism oracle runs under
    {!Isolate}.  [Fail_fast] keeps the outcomes of the aborting event on
    both drivers; sharded, the abort is a best-effort broadcast.
    [Drop_newest] overflow is lossy by design; drops are counted, and a
    dropped event leaves the reconstructed checksum unchanged. *)

(** {2 Engine} *)

type policy =
  | Fail_fast
      (** the first kernel crash aborts the stream and the kernel stays
          dead; sharded: best-effort broadcast abort *)
  | Isolate
      (** contain each crash to the invocation that caused it: revive the
          kernel, charge the fault to the offending extension, keep
          serving (the default) *)
  | Supervise of Supervisor.config
      (** isolate + per-extension circuit breakers + quarantine (sharded:
          per-shard breakers, benched shard-locally, merged by digest) *)

type engine = {
  world : World.t;
  attach : Attach.t;
  ictx : Invoke.t;
  opts : Invoke.run_opts;
  policy : policy;
  sup : Supervisor.t;
}

val create : ?opts:Invoke.run_opts -> ?policy:policy -> World.t -> engine
(** [opts] applies to every invocation (its [skb_payload] is overridden
    per event).  [policy] defaults to {!Isolate}.

    Statically bounded programs (the bound pass) serve with fuel-check
    batching by default ([opts.use_bound_batching]); a serving loop that
    wants a per-extension watchdog derived from each program's static
    bound sets [opts.bound_watchdog] — the deadline hint is per handle
    (each extension's own analysis rides its loaded handle into
    {!Invoke.run}), advisory, and off by default so outcomes stay
    bit-identical to per-instruction checking. *)

type reload = engine -> Epoch.builder -> unit
(** A scheduled hot reload: stage epoch changes on the builder (loads via
    [Pipeline.load_ebpf ~into], unloads, tail-call rewires, config
    changes) and/or rewire the engine's attachments.  The engine
    publishes the builder when the plan returns and measures the swap as
    [epoch.swap_ns]. *)

(** {2 The plan} *)

val synthetic_packets : ?seed:int64 -> size:int -> unit -> int -> Bytes.t
(** Deterministic packet generator: [synthetic_packets ~size () i] is the
    [i]th packet (byte 0 carries [i land 0xff]).  Stateful — consume in
    order, once. *)

type partition =
  | Flow_hash    (** FNV-1a over the payload, the stand-in for a flow key *)
  | Round_robin  (** [index mod domains] *)

type plan = {
  hook : string;
  count : int;
  gen : int -> Bytes.t;  (** stateful: called once per index, in order *)
  domains : int;
  chaos : Chaos.config option;
  reloads : (int * reload) list;
      (** each [(i, plan)] runs at the boundary before event [i]; plans
          sharing an index apply in list order, one epoch swap each *)
  record_checksums : bool;
  queue_capacity : int;
  overflow : Shard.overflow;
  partition : partition;
}

val plan :
  ?seed:int64 ->
  ?size:int ->
  ?gen:(int -> Bytes.t) ->
  ?domains:int ->
  ?chaos:Chaos.config ->
  ?reloads:(int * reload) list ->
  ?record_checksums:bool ->
  ?queue_capacity:int ->
  ?overflow:Shard.overflow ->
  ?partition:partition ->
  hook:string -> count:int -> unit -> plan
(** Smart constructor.  Defaults: a fresh {!synthetic_packets} generator
    (default seed, [size] 64 — pass [?seed]/[?size] to shape it, or
    [?gen] to replace it; [?seed] with [?gen] raises), [domains] 1, no
    chaos, no reloads, no checksum recording, [queue_capacity] 256,
    {!Shard.Block} overflow, {!Flow_hash} partition.  Raises
    [Invalid_argument] on [count < 0], [domains < 1] or
    [queue_capacity < 1]. *)

val default : hook:string -> count:int -> plan
(** [plan ~hook ~count ()].  A function, not a value: the default
    generator is stateful, so every default plan needs a fresh one. *)

(** {2 Stats} *)

type totals = {
  events : int;
  invocations : int;
  finished : int;
  stopped : int;
  crashed : int;
  exhausted : int;
  skipped : int;      (** invocations suppressed by an open breaker *)
  faults_absorbed : int;
      (** crashes + exhaustions contained (always 0 under [Fail_fast]) *)
  quarantined : int;
      (** extensions detached (inline) or shard-benched (sharded) *)
  injected : int;     (** chaos injections that landed on an event *)
  dropped : int;      (** events lost to [Drop_newest] queue overflow *)
  reloads : int;      (** reload plans applied (epoch swaps published) *)
  ret_checksum : int64;
      (** order-sensitive fold of all outcomes, in original event order,
          reconstructed from the per-event folds *)
  host_ns : int64;    (** wall time for the whole stream *)
  events_per_sec : float;
  per_epoch : (int * int) list;
      (** events served under each epoch, ascending epoch order *)
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
  s_dropped : int;            (** events this shard's queue rejected *)
  s_queue_peak : int;         (** max queue occupancy observed *)
  s_backpressure_waits : int; (** producer waits on this shard's queue *)
  s_host_ns : int64;          (** wall time of this shard's worker *)
  s_per_ext : Supervisor.health list;
      (** this shard's private scorecard, attach order *)
}

type stats = {
  domains : int;
  totals : totals;
  per_ext : Supervisor.health list;
      (** per-extension health: the engine supervisor's scorecard
          (inline) or the digest-keyed merge of the per-shard scorecards
          ({!Supervisor.merge_healths}) *)
  per_shard : shard_stats list;
      (** one row per shard domain, ascending shard index; empty when
          the inline driver ran (there is no shard, queue or private
          machine to report) *)
  event_checksums : int64 array;
      (** per-event outcome folds at original indices; empty unless
          [record_checksums] *)
}

val all_healthy : stats -> bool
(** No faults, skips, quarantines or drops: every event fully finished. *)

val pp_totals : Format.formatter -> totals -> unit
val pp_shard : Format.formatter -> shard_stats -> unit

val pp_stats : Format.formatter -> stats -> unit
(** Totals line, then one line per shard (sharded runs). *)

val checksum_add : int64 -> Invoke.outcome -> int64
(** The outcome fold: [Finished v -> acc*31+v], [Stopped -> acc*31-1],
    [Crashed -> acc*31-2], [Exhausted -> acc*31-3]. *)

(** {2 Execution} *)

val run : engine -> plan -> stats
(** Execute the plan: the inline driver when [plan.domains = 1], the
    sharded driver otherwise.  The [dispatch.*] telemetry lands in the
    registry current when the run starts (sharded: recorded per shard,
    folded into that registry at the barrier via
    {!Telemetry.Registry.merge}); the stream's throughput is exported as
    [dispatch.events_per_sec] and each event's host wall time as the
    [dispatch.event_ns] histogram. *)

val sharded : engine -> plan -> stats
(** Force the sharded driver even for [domains = 1] — the oracle's
    "1-shard" leg: coordinator, queue, shard world and private machine
    all engaged, with a single worker domain. *)
