(* The benchmark's own checks: its output checks are live (a planted JIT
   fault makes ops fail), unplanted runs pass them, inputs are a pure
   function of the seed, and the traced run's export validates. *)

open Untenable
open Perfbench
module R = Runner
module W = Workloads

let window ?plant kind seed =
  let inp = R.inputs seed in
  let st, _, _, _ = R.setup ?plant ~reps:1 kind inp in
  let w = R.run_window ~take_heap:false ~seconds:0.05 ~first:0 inp st in
  (w, R.check kind inp [ w ])

let passes kind () =
  let w, failed = window kind 3 in
  Alcotest.(check bool) "ran ops" true (w.R.n > 0);
  Alcotest.(check int) "no failed ops" 0 failed

let planted_jit_bug () =
  let w, failed = window ~plant:[ Fuzz.Oracle.jit_branch_bug_key ] W.Serve_jit_reload 3 in
  Alcotest.(check bool) "ran ops" true (w.R.n > 0);
  Alcotest.(check int) "every op fails its check" w.R.n failed

let planted_bug_interp_untouched () =
  (* the bug lives in the JIT; the interpreter workload must not see it *)
  let _, failed = window ~plant:[ Fuzz.Oracle.jit_branch_bug_key ] W.Serve_interp 3 in
  Alcotest.(check int) "no failed ops" 0 failed

let inputs_are_seeded () =
  let insns (p : Ebpf.Program.t) = p.Ebpf.Program.insns in
  let a = R.inputs 11 and b = R.inputs 11 and c = R.inputs 12 in
  Alcotest.(check bool) "same seed, same images" true
    (List.map insns a.R.images = List.map insns b.R.images
     && List.map insns a.R.clean = List.map insns b.R.clean);
  Alcotest.(check bool) "other seed, other images" true
    (List.map insns a.R.images <> List.map insns c.R.images);
  Alcotest.(check int) "pool size" Population.clean_count (List.length a.R.clean);
  Alcotest.(check int) "one refused image per hazard" Population.reject_count
    (List.length a.R.bad)

let trace_validates () =
  let inp = R.inputs 5 in
  let st, _, _, _ = R.setup ~reps:1 W.Load_verify inp in
  Trace.set_enabled true;
  ignore (R.run_window ~take_heap:false ~seconds:0.05 ~first:0 inp st);
  Trace.set_enabled false;
  Alcotest.(check bool) "spans recorded" true (Trace.count "pipeline.load_ebpf.cold" > 0);
  match Telemetry.Trace_check.validate (Trace.to_chrome ()) with
  | Ok s -> Alcotest.(check bool) "nested spans" true (s.Telemetry.Trace_check.max_depth >= 2)
  | Error e -> Alcotest.fail e

(* A chunk interrupted once must not move any op's factor; a host running
   chunks at twice their nominal time halves every op's time. *)
let rescaling () =
  let cal = Array.make 80 (2. *. Speed.reference_us) in
  cal.(40) <- 50. *. Speed.reference_us;
  Array.iter
    (fun f -> Alcotest.(check (float 1e-9)) "factor" 0.5 f)
    (Speed.factors cal)

let () =
  Alcotest.run "perfbench"
    [ ( "checks",
        [ Alcotest.test_case "serve-interp passes" `Quick (passes W.Serve_interp);
          Alcotest.test_case "serve-jit-reload passes" `Quick (passes W.Serve_jit_reload);
          Alcotest.test_case "load-verify verdicts match" `Quick (passes W.Load_verify);
          Alcotest.test_case "planted JIT bug fails serve-jit-reload" `Quick planted_jit_bug;
          Alcotest.test_case "planted JIT bug spares serve-interp" `Quick
            planted_bug_interp_untouched ] );
      ( "inputs", [ Alcotest.test_case "seeded and sized" `Quick inputs_are_seeded ] );
      ( "speed", [ Alcotest.test_case "rescaling ignores one slow chunk" `Quick rescaling ] );
      ( "trace", [ Alcotest.test_case "export validates" `Quick trace_validates ] ) ]
