(* Set-up, the timed closed loop, and the output checks.

   One client, one domain: each op is issued only after the previous one
   returned.  Ops are timed one by one on the monotonic clock, each after
   one reference chunk that measures the host's speed (see [Speed]);
   checks run after the window, on inputs regenerated from the seed. *)

open Untenable
module W = Workloads
module P = Population

let now = Monotonic_clock.now

type inputs = {
  seed : int;
  images : Ebpf.Program.t list;  (* the four generated serving images *)
  clean : Ebpf.Program.t list;   (* load-verify: accepted pool *)
  bad : Ebpf.Program.t list;     (* load-verify: refused at the gate *)
}

let inputs seed =
  let clean, bad = P.load_pool seed in
  { seed; images = P.serve_images seed; clean; bad }

type state =
  | Serving of { s : W.serving; reloads : bool }
  | Deploying of W.deploy

(* The op index of the warm-up burst; timed ops count up from 0. *)
let warmup_op = -1

let jit_of = function W.Serve_jit_reload -> true | _ -> false

(* Op [i], its input made outside the returned thunk so that only the
   program's work is timed.  The thunk returns the op's output and its
   invocation count. *)
let op inp st i =
  match st with
  | Serving { s; reloads } ->
    let burst = P.burst ~seed:inp.seed ~op:i in
    fun () -> W.serve_op ~reloads s burst
  | Deploying d -> fun () -> (Int64.of_int (W.deploy_op d), 0)

(* One set-up: world and maps, a cold Path A load of the whole population
   plus the verifier-stress image, one warm-up op, then a compaction. *)
let setup_once ?plant kind inp =
  let stress w = ignore (W.load_exn w (P.unprunable P.stress_branches)) in
  let st =
    match kind with
    | W.Serve_interp | W.Serve_jit_reload ->
      let s = W.build_serving ?plant ~jit:(jit_of kind) ~images:inp.images () in
      stress s.W.world;
      Serving { s; reloads = kind = W.Serve_jit_reload }
    | W.Load_verify ->
      let w = W.fresh_world () in
      List.iter (fun p -> ignore (W.load_exn w p)) inp.clean;
      let ext = P.rustlite_ext () in
      ignore (W.load_rustlite_exn w ext);
      stress w;
      Deploying { W.clean = inp.clean; bad = inp.bad; ext }
  in
  ignore (op inp st warmup_op ());
  Gc.compact ();
  st

let setup_reps = 5

let mb words = float words *. float (Sys.word_size / 8) /. 1e6

(* The largest the major heap has been, read right after the first
   set-up: the verifier-stress image's state explosion and the
   population's cold loads.  Read later, it would track where the garbage
   of later set-ups or of the serving loop happened to peak between two
   collections. *)
let peak_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* Set up [reps] times; keep the last state.  Returns every rep's time
   rescaled to the reference host (see [Speed]), its wall time, and the
   peak heap read after the first rep (see [peak_mb]). *)
let setup ?plant ?(reps = setup_reps) kind inp =
  let rec go k acc raw peak =
    (* every rep starts from the same compacted heap *)
    Gc.compact ();
    let st, wall, scaled = Speed.timed (fun () -> setup_once ?plant kind inp) in
    let acc = scaled :: acc and raw = wall :: raw in
    let peak = match peak with None -> Some (peak_mb ()) | p -> p in
    if k = 1 then (st, List.rev acc, List.rev raw, Option.get peak)
    else go (k - 1) acc raw peak
  in
  go reps [] [] None

(* ---- the timed window ---- *)

type heap = { at_op : int; live_mb : float }

type window = {
  first : int;              (* op index of the first op *)
  n : int;
  wall_s : float;           (* the ops' wall time: reference chunks and heap read excluded *)
  scaled_s : float;         (* the same, rescaled to the reference host *)
  lat_us : float array;     (* per-op latency rescaled to the reference host *)
  raw_lat_us : float array; (* per-op wall latency *)
  chunk_us : float;         (* median reference-chunk time over the window *)
  results : int64 array;    (* per-op output, checked after the window *)
  invocations : int;
  heap : heap option;
  grace_max : int;
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major : int;
}

(* The live heap is read after this many ops, the same count on every
   commit: the epoch transition log grows with every reload, so reading
   at the window's end would charge a faster change extra memory. *)
let heap_at = 150

let max_ops = 100_000

(* OCaml 5's heap counters trail the collector by a cycle, and garbage
   allocated during a marking cycle survives it, so the first readings
   after a compaction can be several times the real live heap (and two
   equal readings in a row do not mean the count has settled).  Compact
   at least four times, then until the count stops falling. *)
let live_words () =
  let rec settle prev k =
    Gc.compact ();
    let v = (Gc.quick_stat ()).Gc.live_words in
    if k >= 4 && (v >= prev || k >= 12) then v else settle (min prev v) (k + 1)
  in
  settle max_int 1

let read_heap at_op = { at_op; live_mb = mb (live_words ()) }

let grace st =
  match st with
  | Serving { s; _ } -> Framework.Epoch.grace_pending s.W.world.Framework.World.epochs
  | Deploying _ -> 0

(* Per-op samples live outside the OCaml heap, so they do not count in
   [heap_live_mb]. *)
let floats () = Bigarray.(Array1.create float64 c_layout max_ops)

(* Each op is preceded by one reference chunk.  An op's segment runs from
   the end of its chunk to the end of its bookkeeping (making its input
   included); the op's latency is the call alone.  Both are rescaled by
   the chunks around the op once the window has closed. *)
let run_window ?(take_heap = true) ~seconds ~first inp st =
  let lat = floats () and seg = floats () and cal = floats () in
  let res = Bigarray.(Array1.create int64 c_layout max_ops) in
  let invocations = ref 0 and grace_max = ref 0 in
  let heap = ref None in
  let g0 = Gc.quick_stat () in
  let limit = ref (Int64.add (now ()) (Int64.of_float (seconds *. 1e9))) in
  let n = ref 0 in
  while !n < max_ops && Int64.compare (now ()) !limit < 0 do
    let i = first + !n in
    cal.{!n} <- Speed.sample ();
    let s0 = now () in
    let run = op inp st i in
    let t0 = now () in
    let ck, inv = Trace.with_op (i + 1) (fun () -> Trace.span "op" run) in
    let t1 = now () in
    lat.{!n} <- Int64.to_float (Int64.sub t1 t0) /. 1e3;
    res.{!n} <- ck;
    invocations := !invocations + inv;
    grace_max := max !grace_max (grace st);
    seg.{!n} <- Int64.to_float (Int64.sub (now ()) s0) /. 1e9;
    incr n;
    if take_heap && !n = heap_at then begin
      (* the window is extended by the time the reading takes *)
      let p0 = now () in
      heap := Some (read_heap !n);
      limit := Int64.add !limit (Int64.sub (now ()) p0)
    end
  done;
  let g1 = Gc.quick_stat () in
  let heap =
    match !heap with
    | Some h -> Some h
    | None when take_heap -> Some (read_heap !n)
    | None -> None
  in
  let n = !n in
  let f = Speed.factors (Array.init n (fun k -> cal.{k})) in
  let sum g = Array.fold_left ( +. ) 0. (Array.init n g) in
  { first; n;
    wall_s = sum (fun k -> seg.{k});
    scaled_s = sum (fun k -> seg.{k} *. f.(k));
    lat_us = Array.init n (fun k -> lat.{k} *. f.(k));
    raw_lat_us = Array.init n (fun k -> lat.{k});
    chunk_us = Speed.median_of (Array.init n (fun k -> cal.{k}));
    results = Array.init n (fun k -> res.{k});
    invocations = !invocations; heap; grace_max = !grace_max;
    gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections }

(* ---- output checks, after the window ---- *)

(* Number of ops whose output disagrees with the reference.  Serving ops
   are replayed in order on an interpreter twin built from the same
   inputs (warm-up burst first, so map state matches); deploy ops must
   return every verdict bit. *)
let check kind inp (windows : window list) =
  let failed = ref 0 in
  (match kind with
  | W.Load_verify ->
    List.iter
      (fun w ->
        Array.iter
          (fun r -> if Int64.to_int r <> W.expected_verdicts then incr failed)
          w.results)
      windows
  | W.Serve_interp | W.Serve_jit_reload ->
    let reloads = kind = W.Serve_jit_reload in
    let twin = W.build_serving ~jit:false ~images:inp.images () in
    let replay i =
      W.replay ~opts:W.reference_opts ~reloads twin (P.burst ~seed:inp.seed ~op:i)
    in
    ignore (replay warmup_op);
    List.iter
      (fun w ->
        Array.iteri
          (fun k r -> if not (Int64.equal r (replay (w.first + k))) then incr failed)
          w.results)
      windows);
  !failed

(* ---- statistics ---- *)

let median l = Speed.median_of (Array.of_list l)

(* Completed ops over the ops' time, rescaled to the reference host. *)
let ops_per_s w = float w.n /. w.scaled_s

(* The same over wall time, for comparison. *)
let raw_ops_per_s w = float w.n /. w.wall_s

(* Linear-interpolated percentile of an unsorted sample. *)
let percentile q xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))
