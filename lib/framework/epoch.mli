(** Epoch-based world snapshots: immutable views of the serving state with
    RCU-style publication and grace periods.

    A {!snapshot} freezes everything an in-flight invocation reads — the
    loaded-program table, the tail-call index, the verifier and analysis
    configurations.  Readers {!pin} the current snapshot for one
    invocation and resolve every lookup against it, so no event can
    observe a half-applied world.

    All mutation flows through a {!builder}: stage loads, unloads,
    tail-call rewires and config changes, then {!publish} swaps epoch
    [N+1] in atomically.  The superseded snapshot retires only after a
    grace period in which no reader pins it and the simulated kernel's
    RCU read-side tracking ({!Kernel_sim.Rcu.in_critical_section})
    reports quiescence; grace periods are measured on the virtual clock
    and exported as the [epoch.grace_ns] histogram, alongside the
    [epoch.published] / [epoch.retired] counters.

    Registry-level state (the kernel, map registry, bug database,
    supervisor history) lives outside the snapshot, in {!World}. *)

module Int_map : Map.S with type key = int

type snapshot = private {
  epoch : int;  (** 1-based; genesis is epoch 1 *)
  progs : Ebpf.Program.t Int_map.t;
  prog_array : int Int_map.t;  (** tail-call index -> prog id *)
  vconfig : Bpf_verifier.Verifier.config;
  aconfig : Analysis.Driver.config;
  published_at_ns : int64;  (** virtual-clock publish time *)
  mutable pins : int;
  mutable superseded_at_ns : int64 option;
  mutable retired_at_ns : int64 option;
}
(** Immutable world view.  The mutable fields are lifecycle bookkeeping
    owned by the store; callers read them but mutate only through
    {!retain} / {!release} / {!publish}. *)

type transition = private {
  epoch : int;              (** the epoch this publish created *)
  at_ns : int64;
  loads : int;
  unloads : int;
  tail_call_updates : int;
  vconfig_changed : bool;
  aconfig_changed : bool;
  mutable grace_ns : int64 option;
      (** the superseded epoch's grace period, once it retires *)
}
(** One row of the epoch-transition log. *)

type store
(** The long-lived epoch chain: current snapshot, retiring snapshots
    waiting out their grace periods, the prog-id allocator and the
    transition log (its newest {!transition_window} rows). *)

val transition_window : int
(** How many transition rows the store keeps: 16.  Older rows are
    dropped at {!publish}, so a long-lived store's log is constant-size.
    {!published} and {!retired} still count every swap, and the
    [epoch.grace_ns] histogram still records every grace period; only the
    per-row [grace_ns] of a dropped row is lost. *)

val create_store :
  clock:Kernel_sim.Vclock.t ->
  rcu:Kernel_sim.Rcu.t ->
  vconfig:Bpf_verifier.Verifier.config ->
  aconfig:Analysis.Driver.config ->
  store
(** A store whose genesis snapshot (epoch 1, empty tables) carries the
    given configurations.  Genesis is not counted in [epoch.published]
    and has no transition row. *)

val current : store -> snapshot
val current_epoch : store -> int

val pin : store -> snapshot
(** Pin the current snapshot for one invocation ([retain] on current). *)

val retain : store -> snapshot -> snapshot
(** Add a read-side pin to [snap] (which may already be superseded).
    Raises [Invalid_argument] if the snapshot has already retired. *)

val release : store -> snapshot -> unit
(** Drop one pin and attempt retirement of superseded snapshots: any
    snapshot with no pins retires once the kernel's RCU read-side
    tracking reports quiescence, closing its grace period. *)

val published : store -> int
(** Swaps since genesis. *)

val retired : store -> int
val grace_pending : store -> int
(** Superseded snapshots still waiting out their grace period. *)

val transitions : store -> transition list
(** The newest {!transition_window} rows, oldest first. *)

val pp_transition : Format.formatter -> transition -> unit

(** {2 Snapshot reads} *)

val find_prog : snapshot -> int -> Ebpf.Program.t option
val tail_target : snapshot -> int -> int option
val progs_sorted : snapshot -> (int * Ebpf.Program.t) list
val tail_calls_sorted : snapshot -> (int * int) list

(** {2 The builder — the only mutation path} *)

type builder
(** Staged changes against the snapshot that was current at {!begin_}.
    Single-shot: every operation raises after {!publish}. *)

val begin_ : store -> builder

val add_prog : builder -> Ebpf.Program.t -> int
(** Stage a program load; allocates and returns its prog id. *)

val unload : builder -> prog_id:int -> bool
(** Stage removal of a loaded program; [false] if the id is not loaded.
    Tail-call entries pointing at it are kept — a chase through them then
    finds no program and returns -EINVAL, like a cleared prog-array
    slot.  Use {!clear_tail_call} to drop the slot itself. *)

val set_tail_call : builder -> index:int -> prog_id:int -> unit
val clear_tail_call : builder -> index:int -> unit
val set_vconfig : builder -> Bpf_verifier.Verifier.config -> unit
val set_aconfig : builder -> Analysis.Driver.config -> unit

val vconfig : builder -> Bpf_verifier.Verifier.config
(** The staged verifier configuration (the base snapshot's until
    {!set_vconfig}). *)

val aconfig : builder -> Analysis.Driver.config

val publish : builder -> snapshot
(** Swap epoch [N+1] in: one atomic pointer write.  The superseded
    snapshot enters its grace period (retiring immediately if nothing
    pins it).  Bumps [epoch.published] and appends a {!transition},
    dropping the oldest row beyond {!transition_window}. *)
