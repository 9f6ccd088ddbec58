(* Dispatch: the historical face of the serving loop, now a thin facade
   over Serve.

   The engine, policy and reload types ARE Serve's (re-exported with
   equations, so values flow freely between the two modules).  Streams
   are Serve's business — build a [Serve.plan] and call [Serve.run]; the
   deprecated [run_stream] shim has been removed.  What remains here is
   the one-event fan-out ([dispatch_event]), the raw building block under
   both. *)

type policy = Serve.policy =
  | Fail_fast
  | Isolate
  | Supervise of Supervisor.config

type engine = Serve.engine = {
  world : World.t;
  attach : Attach.t;
  ictx : Invoke.t;
  opts : Invoke.run_opts;
  policy : policy;
  sup : Supervisor.t;
}

let create = Serve.create

type reload_plan = Serve.reload

let synthetic_packets = Serve.synthetic_packets

(* ---- one-event fan-out (unsupervised) ---- *)

let tele_events = Telemetry.Registry.counter "dispatch.events"
let tele_invocations = Telemetry.Registry.counter "dispatch.invocations"
let tele_crashes = Telemetry.Registry.counter "dispatch.crashes"
let tele_stops = Telemetry.Registry.counter "dispatch.stops"
let tele_exhausted = Telemetry.Registry.counter "dispatch.exhausted"
let tele_event_ns = Telemetry.Registry.histogram "dispatch.event_ns"

(* One event through every extension attached to [hook], in attach order,
   with no supervision — the raw fan-out.  Returns the per-attachment
   reports (same order). *)
let dispatch_event e ~hook payload =
  Telemetry.Registry.bump tele_events;
  let started = Telemetry.Clock.host_ns () in
  let opts = { e.opts with Invoke.skb_payload = Some payload } in
  let reports =
    List.map
      (fun (a : Attach.attachment) ->
        Telemetry.Registry.bump tele_invocations;
        let report = Invoke.run ~opts ~ictx:e.ictx e.world a.Attach.loaded in
        (match report.Invoke.outcome with
        | Invoke.Crashed _ -> Telemetry.Registry.bump tele_crashes
        | Invoke.Stopped _ -> Telemetry.Registry.bump tele_stops
        | Invoke.Exhausted _ -> Telemetry.Registry.bump tele_exhausted
        | Invoke.Finished _ -> ());
        report)
      (Attach.attached e.attach ~hook)
  in
  Telemetry.Registry.observe tele_event_ns
    (Int64.sub (Telemetry.Clock.host_ns ()) started);
  reports
