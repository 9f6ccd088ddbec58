(* The benchmark's one command.

     dune exec --root . --display quiet -- ./perfbench/main.exe \
       --workload <serve-interp|serve-jit-reload|load-verify> \
       --seed <n> --seconds <s> --trace <0|1>

   Prints every metric by name with its unit and sample count, a host
   line (cores, OCaml version, commit), and as its last line one JSON
   object: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  End-to-end times are rescaled to a reference
   host by the benchmark's own interleaved reference chunk (see [Speed]),
   so that they follow the program and not the neighbours on a shared
   host; the wall-clock figures they stand for are printed beside them.
   The traced run also measures an untraced window first, so it prints
   both sets and the tracing overhead; its spans go to
   [.perfbench/trace-<workload>-<seed>.json], checked with the repo's
   trace validator. *)

open Untenable
open Perfbench
module W = Workloads
module R = Runner
module Pr = Probes

let usage () =
  prerr_endline
    "usage: main.exe --workload <serve-interp|serve-jit-reload|load-verify> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let kind =
    match List.assoc_opt (get "workload") W.kinds with
    | Some k -> k
    | None -> usage ()
  in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  (kind, int "seed", seconds, trace)

(* ---- host descriptor ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let commit () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      trim (read_file (Filename.concat ".git" r))
    else head
  with Sys_error _ -> (
    (* a checkout without git metadata: name the sources instead *)
    let rec files dir =
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
             else [])
    in
    try
      let b = Buffer.create 65_536 in
      List.iter
        (fun p ->
          Buffer.add_string b p;
          Buffer.add_string b (read_file p))
        (files "lib");
      "tree:" ^ String.sub (Hash.Sha256.hex_digest (Buffer.contents b)) 0 12
    with Sys_error _ -> "unknown")

(* ---- output ---- *)

let print_metrics title ms =
  Printf.printf "# %s\n" title;
  List.iter
    (fun (x : Pr.metric) ->
      Printf.printf "%-40s %14.4f %-6s n=%d%s\n" x.Pr.name x.Pr.value x.Pr.unit_ x.Pr.samples
        (if x.Pr.derived then "  (derived)" else ""))
    ms

let json_line ~correct ~attempted ~failed ms =
  let metric (x : Pr.metric) =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Trace.json_string x.Pr.name)
      x.Pr.value (Trace.json_string x.Pr.unit_)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " (List.map metric ms))

(* ---- metrics ---- *)

(* The wall-clock figures the rescaled metrics stand for, and the host's
   speed during the window (reference chunk time against its nominal). *)
let print_wall ~setup_wall (w : R.window) =
  Printf.printf
    "# wall clock: setup_s %.4f  ops_per_s %.3f  op_p50_us %.1f  op_p90_us %.1f; \
     reference chunk %.1f us (nominal %.0f)\n"
    (R.median setup_wall) (R.raw_ops_per_s w) (R.percentile 0.5 w.R.raw_lat_us)
    (R.percentile 0.9 w.R.raw_lat_us) w.R.chunk_us Speed.reference_us

let end_to_end setup_times ~peak (w : R.window) =
  let h = Option.get w.R.heap in
  let n = w.R.n in
  let p90 = R.percentile 0.9 w.R.lat_us in
  let beyond = Array.fold_left (fun a x -> if x > p90 then a + 1 else a) 0 w.R.lat_us in
  let reps = List.length setup_times in
  ( [ Pr.m "setup_s" "s" reps (R.median setup_times);
      Pr.m "ops_per_s" "1/s" n (R.ops_per_s w);
      Pr.m "op_p50_us" "us" n (R.percentile 0.5 w.R.lat_us);
      Pr.m "op_p90_us" "us" n p90;
      Pr.m "heap_live_mb" "MB" h.R.at_op h.R.live_mb;
      Pr.m "heap_peak_mb" "MB" (List.length setup_times) peak ],
    beyond )

let gc_metrics (w : R.window) =
  let n = float (max 1 w.R.n) and words = float (Sys.word_size / 8) in
  [ Pr.m "gc.minor_mb_per_op" "MB" w.R.n (w.R.gc_minor_words *. words /. 1e6 /. n);
    Pr.m "gc.promoted_kb_per_op" "kB" w.R.n (w.R.gc_promoted_words *. words /. 1e3 /. n);
    Pr.m "gc.major_per_kop" "count" w.R.n (1e3 *. float w.R.gc_major /. n) ]

(* Called after every measurement: naming the sources of a checkout
   without git metadata reads and hashes them, which would show in the
   heap figures. *)
let print_host () =
  Printf.printf "# host: nproc=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (commit ())

let () =
  let kind, seed, seconds, trace = args () in
  let inp = R.inputs seed in
  let st, setup_times, setup_wall, peak = R.setup kind inp in
  let secs l = String.concat "," (List.map (Printf.sprintf "%.4f") l) in
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%d setup_reps=%s (wall %s)\n"
    (W.name kind) seed seconds (Bool.to_int trace) (secs setup_times) (secs setup_wall);
  if not trace then begin
    let w = R.run_window ~seconds ~first:0 inp st in
    let failed = R.check kind inp [ w ] in
    let e2e, beyond = end_to_end setup_times ~peak w in
    print_metrics "end to end (times rescaled to the reference host)" e2e;
    print_wall ~setup_wall w;
    Printf.printf "# op samples beyond p90: %d of %d; heap read after op %d\n" beyond w.R.n
      (Option.get w.R.heap).R.at_op;
    print_host ();
    json_line ~correct:(failed = 0) ~attempted:w.R.n ~failed e2e
  end
  else begin
    let wa = R.run_window ~seconds:(0.4 *. seconds) ~first:0 inp st in
    let hit0 = Pr.counter "cache.hit" and miss0 = Pr.counter "cache.miss" in
    Trace.set_enabled true;
    let wb = R.run_window ~take_heap:false ~seconds:(0.4 *. seconds) ~first:wa.R.n inp st in
    let hits = float (Pr.counter "cache.hit" - hit0) in
    let lookups = hits +. float (Pr.counter "cache.miss" - miss0) in
    let op_layers = Trace.self_by_layer () in
    Trace.reset_aggs ();
    let probes = Pr.run kind inp in
    let probe_layers = Trace.self_by_layer () in
    Trace.set_enabled false;
    let failed = R.check kind inp [ wa; wb ] in
    let window =
      [ Pr.m "serve.invocations_per_op" "count" wb.R.n
          (Pr.ratio (float wb.R.invocations) (float wb.R.n));
        Pr.m "vcache.hit_ratio" "ratio" (int_of_float lookups) (Pr.ratio hits lookups);
        Pr.m "epoch.grace_pending_max" "count" (wa.R.n + wb.R.n)
          (float (max wa.R.grace_max wb.R.grace_max)) ]
      @ gc_metrics wa
      @ [ Pr.m ~derived:true "trace.overhead_pct" "%" wb.R.n
            (100. *. (R.ops_per_s wa -. R.ops_per_s wb) /. R.ops_per_s wa) ]
    in
    let e2e, beyond = end_to_end setup_times ~peak wa in
    print_metrics "end to end (untraced window, times rescaled to the reference host)" e2e;
    print_wall ~setup_wall wa;
    Printf.printf "# op samples beyond p90: %d of %d; heap read after op %d\n" beyond wa.R.n
      (Option.get wa.R.heap).R.at_op;
    let layer_table title layers =
      let total = List.fold_left (fun a (_, us) -> a +. us) 0. layers in
      Printf.printf "# self time by layer, %s\n" title;
      List.iter
        (fun (l, us) ->
          Printf.printf "#   %-12s %12.1f us  %5.1f%%\n" l us (100. *. us /. total))
        layers
    in
    layer_table "traced ops" op_layers;
    layer_table "probes" probe_layers;
    let per_layer = probes @ window in
    print_metrics "per layer" per_layer;
    let get n = (List.find (fun (x : Pr.metric) -> x.Pr.name = n) per_layer).Pr.value in
    let serve = get "serve.us_per_invocation" and digest = get "attach.digest_us" in
    let invoke = serve -. get "serve.overhead_us_per_invocation" in
    let parts =
      [ ("attach.digest", digest); ("invoke.run", invoke);
        ("serve bookkeeping besides the digest", serve -. invoke -. digest) ]
    in
    let top, us =
      List.fold_left
        (fun (a, x) (b, y) -> if y > x then (b, y) else (a, x))
        ("", neg_infinity) parts
    in
    Printf.printf
      "# largest share of serve.us_per_invocation (%.2f us): %s, %.2f us (%.0f%%)\n"
      serve top us (100. *. us /. serve);
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/trace-%s-%d.json" (W.name kind) seed in
    let trace_ok =
      match Trace.write_and_check path with
      | Ok s ->
        Printf.printf "# trace %s: %d spans in %d lanes, depth %d, %d dropped; valid\n" path
          s.Telemetry.Trace_check.spans s.Telemetry.Trace_check.traces
          s.Telemetry.Trace_check.max_depth !Trace.dropped;
        true
      | Error e ->
        Printf.printf "# trace %s INVALID: %s\n" path e;
        false
    in
    print_host ();
    json_line ~correct:(failed = 0 && trace_ok) ~attempted:(wa.R.n + wb.R.n) ~failed per_layer
  end
