(** Content-addressed verdict cache for the verify gate of the load
    pipeline.

    Keyed by (program digest, fingerprint of verifier config + injected bug
    sets + referenced map shapes + kernel version); a hit replays the
    recorded verdict — stats included — without re-running the verifier's
    DFS.  The fingerprint is recomputed from live mutable state on every
    lookup, so mutating {!World.t.vconfig}, a {!Bpf_verifier.Vbug.t}
    toggle, or the {!Helpers.Bugdb.t} injection set invalidates cached
    verdicts instead of replaying a stale accept. *)

type verdict = (Bpf_verifier.Verifier.stats, Bpf_verifier.Verifier.reject) result

type t

val create : unit -> t

val fingerprint :
  ?analysis:string ->
  config:Bpf_verifier.Verifier.config ->
  bugs:Helpers.Bugdb.t ->
  map_def:(int -> Maps.Bpf_map.def option) ->
  Ebpf.Program.t ->
  string
(** Hash of every verdict input besides program content, built from the
    live values passed on each call.  [?analysis] is the digest of the
    static-analysis configuration ({!Analysis.Driver.config_digest},
    memoized per config value); when non-empty it is folded in, so
    toggling an analysis pass invalidates cached load results. *)

val key : digest:string -> fingerprint:string -> string

val find : ?epoch:int -> t -> string -> verdict option
(** Bumps the hit/miss tallies (and the registry's [cache.hit] /
    [cache.miss] / [cache.invalidated] counters) as a side effect.  A miss
    for a digest whose previous lookup used a different fingerprint counts
    as an invalidation: the program is known, but a fingerprinted input
    changed.

    [?epoch] is the caller's current {!Epoch} number: a hit on an entry
    stored under an earlier epoch additionally counts as a cross-epoch
    reuse ([cache.cross_epoch_reuse]) — the same image re-admitted after a
    hot reload without re-verification. *)

val store : ?epoch:int -> t -> string -> verdict -> unit
(** Record a verdict, tagged with the epoch it was computed under. *)

(** {2 Cached static-analysis reports}

    Stored alongside verdicts under (program digest, analysis-config
    digest) — the only inputs the passes read — with separate hit/miss
    tallies so analysis caching cannot perturb verdict measurements. *)

val analysis_key : digest:string -> config_digest:string -> string
(** [config_digest] is {!Analysis.Driver.config_digest} of the config the
    report is computed under. *)

val find_analysis : t -> string -> Analysis.Driver.report option
(** Bumps the analysis hit/miss tallies as a side effect. *)

val store_analysis : t -> string -> Analysis.Driver.report -> unit

val clear : t -> unit
val size : t -> int
val hits : t -> int
val misses : t -> int

val invalidations : t -> int
(** Misses that replaced an existing digest's fingerprint (config, bug-set
    or map-shape churn), as opposed to never-seen programs. *)

val cross_epoch_reuse : t -> int
(** Hits whose entry was stored under an earlier epoch than the lookup's. *)

val analysis_size : t -> int
val analysis_hits : t -> int
val analysis_misses : t -> int
