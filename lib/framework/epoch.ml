(* Epoch-based world snapshots: the serving core's RCU-style publication
   scheme.

   The paper's §3 framework is a *serving* architecture — extensions are
   signed, loaded and revoked over the lifetime of a running kernel — so
   the tables an invocation reads (the loaded-program table, the tail-call
   index, the verifier/analysis configuration) must never change underneath
   an in-flight event.  Mutable hashtables cannot promise that; immutable
   snapshots can.

   The scheme mirrors kernel RCU:

   - a [snapshot] is an immutable value: frozen program table, frozen
     tail-call index, the vconfig/aconfig the programs were admitted under.
     Readers pin it ([retain]/[release]) for the duration of one
     invocation and resolve every lookup against it — a half-applied world
     is unrepresentable.

   - all mutation goes through a [builder]: stage loads/unloads/tail-call
     rewires/config changes against the current snapshot, then [publish]
     swaps epoch N+1 in atomically (one pointer write in this simulation).

   - the superseded snapshot N retires only after a grace period: when no
     reader pins it *and* the simulated kernel's RCU read-side tracking
     ([Kernel_sim.Rcu.in_critical_section]) reports quiescence.  The grace
     period is measured on the virtual clock and exported as the
     [epoch.grace_ns] histogram.

   Registry-level state — the kernel itself, the map registry, the helper
   bug database, supervisor history, telemetry — deliberately lives
   *outside* the snapshot (in [World]): fault injection and health history
   straddle epochs by design.  The [Bpf_verifier.Vbug.t] toggles nested
   inside vconfig are likewise live injection state shared across epochs;
   the verdict cache fingerprints them on every lookup, so flipping one
   invalidates verdicts without an epoch swap. *)

module Vclock = Kernel_sim.Vclock
module Rcu = Kernel_sim.Rcu
module Program = Ebpf.Program
module Verifier = Bpf_verifier.Verifier
module Int_map = Map.Make (Int)

type snapshot = {
  epoch : int;
  progs : Program.t Int_map.t;
  prog_array : int Int_map.t;  (* tail-call index -> prog id *)
  vconfig : Verifier.config;
  aconfig : Analysis.Driver.config;
  published_at_ns : int64;
  mutable pins : int;
  mutable superseded_at_ns : int64 option;
  mutable retired_at_ns : int64 option;
}

(* One row of the epoch-transition log: what the publish that *created*
   [epoch] staged, and — once the predecessor retires — how long its grace
   period ran. *)
type transition = {
  epoch : int;
  at_ns : int64;
  loads : int;
  unloads : int;
  tail_call_updates : int;
  vconfig_changed : bool;
  aconfig_changed : bool;
  mutable grace_ns : int64 option;
}

type store = {
  clock : Vclock.t;
  rcu : Rcu.t;
  (* One lock serialises every store mutation (pin/release bookkeeping,
     publish, prog-id allocation) and every multi-field read.  Sharded
     serving (Framework.Serve) pins and releases from N domains against
     one shared store; the critical sections are a handful of field
     updates, so contention is negligible next to an invocation. *)
  lock : Mutex.t;
  mutable current : snapshot;
  mutable next_prog_id : int;
  (* superseded snapshots still waiting out their grace period *)
  mutable retiring : snapshot list;
  (* the newest [transition_window] rows, newest first *)
  mutable transitions : transition list;
  mutable published : int;  (* swaps since genesis (genesis excluded) *)
  mutable retired : int;
}

let locked store f = Mutex.protect store.lock f

(* The transition log keeps only its newest rows: a long-lived store
   publishes without bound, and every kept row is live heap. *)
let transition_window = 16

(* ---- telemetry ---- *)

let tele_published = Telemetry.Registry.counter "epoch.published"
let tele_retired = Telemetry.Registry.counter "epoch.retired"
let tele_grace_ns = Telemetry.Registry.histogram "epoch.grace_ns"

(* ---- store ---- *)

let create_store ~clock ~rcu ~vconfig ~aconfig =
  let genesis =
    { epoch = 1; progs = Int_map.empty; prog_array = Int_map.empty;
      vconfig; aconfig; published_at_ns = Vclock.now clock; pins = 0;
      superseded_at_ns = None; retired_at_ns = None }
  in
  { clock; rcu; lock = Mutex.create (); current = genesis; next_prog_id = 1;
    retiring = []; transitions = []; published = 0; retired = 0 }

let current store = locked store (fun () -> store.current)
let current_epoch store = locked store (fun () -> store.current.epoch)
let published store = locked store (fun () -> store.published)
let retired store = locked store (fun () -> store.retired)
let grace_pending store = locked store (fun () -> List.length store.retiring)
let transitions store = locked store (fun () -> List.rev store.transitions)

(* ---- snapshot reads ---- *)

let find_prog snap prog_id = Int_map.find_opt prog_id snap.progs
let tail_target snap index = Int_map.find_opt index snap.prog_array
let progs_sorted snap = Int_map.bindings snap.progs
let tail_calls_sorted snap = Int_map.bindings snap.prog_array

(* ---- grace periods ---- *)

(* Retire every superseded snapshot nobody can still read: no pins, and the
   kernel's RCU read-side tracking reports no open critical section.  The
   grace period is supersession -> retirement on the virtual clock. *)
let quiesce_locked store =
  if not (Rcu.in_critical_section store.rcu) then begin
    let now = Vclock.now store.clock in
    let still_held, done_ = List.partition (fun s -> s.pins > 0) store.retiring in
    List.iter
      (fun s ->
        s.retired_at_ns <- Some now;
        store.retired <- store.retired + 1;
        Telemetry.Registry.bump tele_retired;
        let grace =
          match s.superseded_at_ns with
          | Some t -> Int64.sub now t
          | None -> 0L
        in
        Telemetry.Registry.observe tele_grace_ns grace;
        (* credit the grace period to the transition that superseded [s],
           unless that row has already left the window *)
        match
          List.find_opt (fun tr -> tr.epoch = s.epoch + 1) store.transitions
        with
        | Some tr -> tr.grace_ns <- Some grace
        | None -> ())
      done_;
    store.retiring <- still_held
  end

let retain store snap =
  locked store (fun () ->
      (match snap.retired_at_ns with
      | Some _ -> invalid_arg "Epoch.retain: snapshot already retired"
      | None -> ());
      snap.pins <- snap.pins + 1;
      snap)

let release store snap =
  locked store (fun () ->
      snap.pins <- (if snap.pins > 0 then snap.pins - 1 else 0);
      quiesce_locked store)

let pin store =
  locked store (fun () ->
      let snap = store.current in
      snap.pins <- snap.pins + 1;
      snap)

(* ---- the builder: the only mutation path ---- *)

type builder = {
  store : store;
  mutable b_progs : Program.t Int_map.t;
  mutable b_prog_array : int Int_map.t;
  mutable b_vconfig : Verifier.config;
  mutable b_aconfig : Analysis.Driver.config;
  mutable b_loads : int;
  mutable b_unloads : int;
  mutable b_tc_updates : int;
  mutable b_vconfig_changed : bool;
  mutable b_aconfig_changed : bool;
  mutable b_published : bool;
}

let begin_ store =
  let base = locked store (fun () -> store.current) in
  { store; b_progs = base.progs; b_prog_array = base.prog_array;
    b_vconfig = base.vconfig; b_aconfig = base.aconfig; b_loads = 0;
    b_unloads = 0; b_tc_updates = 0; b_vconfig_changed = false;
    b_aconfig_changed = false; b_published = false }

let check_open b =
  if b.b_published then invalid_arg "Epoch: builder already published"

let add_prog b prog =
  check_open b;
  let prog_id =
    locked b.store (fun () ->
        let id = b.store.next_prog_id in
        b.store.next_prog_id <- id + 1;
        id)
  in
  b.b_progs <- Int_map.add prog_id prog b.b_progs;
  b.b_loads <- b.b_loads + 1;
  prog_id

let unload b ~prog_id =
  check_open b;
  if Int_map.mem prog_id b.b_progs then begin
    b.b_progs <- Int_map.remove prog_id b.b_progs;
    b.b_unloads <- b.b_unloads + 1;
    (* tail-call entries pointing at the unloaded program stay: a chase
       through them finds no program and returns -EINVAL, like a cleared
       prog-array slot — use [clear_tail_call] to drop the slot itself *)
    true
  end
  else false

let set_tail_call b ~index ~prog_id =
  check_open b;
  b.b_prog_array <- Int_map.add index prog_id b.b_prog_array;
  b.b_tc_updates <- b.b_tc_updates + 1

let clear_tail_call b ~index =
  check_open b;
  if Int_map.mem index b.b_prog_array then begin
    b.b_prog_array <- Int_map.remove index b.b_prog_array;
    b.b_tc_updates <- b.b_tc_updates + 1
  end

let set_vconfig b vconfig =
  check_open b;
  b.b_vconfig <- vconfig;
  b.b_vconfig_changed <- true

let set_aconfig b aconfig =
  check_open b;
  b.b_aconfig <- aconfig;
  b.b_aconfig_changed <- true

let vconfig b = b.b_vconfig
let aconfig b = b.b_aconfig

(* Publish epoch N+1: one pointer swap, the old snapshot enters its grace
   period.  The builder is single-shot — a second publish raises. *)
let publish b =
  check_open b;
  b.b_published <- true;
  let store = b.store in
  locked store (fun () ->
      let old = store.current in
      let now = Vclock.now store.clock in
      let snap =
        { epoch = old.epoch + 1; progs = b.b_progs;
          prog_array = b.b_prog_array; vconfig = b.b_vconfig;
          aconfig = b.b_aconfig; published_at_ns = now; pins = 0;
          superseded_at_ns = None; retired_at_ns = None }
      in
      old.superseded_at_ns <- Some now;
      store.retiring <- old :: store.retiring;
      store.current <- snap;
      store.published <- store.published + 1;
      Telemetry.Registry.bump tele_published;
      store.transitions <-
        List.filteri
          (fun i _ -> i < transition_window)
          ({ epoch = snap.epoch; at_ns = now; loads = b.b_loads;
             unloads = b.b_unloads; tail_call_updates = b.b_tc_updates;
             vconfig_changed = b.b_vconfig_changed;
             aconfig_changed = b.b_aconfig_changed; grace_ns = None }
          :: store.transitions);
      quiesce_locked store;
      snap)

let pp_transition ppf tr =
  Format.fprintf ppf
    "epoch %d @%Ldns loads=%d unloads=%d tail_calls=%d vconfig=%s aconfig=%s \
     grace=%s"
    tr.epoch tr.at_ns tr.loads tr.unloads tr.tail_call_updates
    (if tr.vconfig_changed then "changed" else "-")
    (if tr.aconfig_changed then "changed" else "-")
    (match tr.grace_ns with
    | Some g -> Printf.sprintf "%Ldns" g
    | None -> "pending")
