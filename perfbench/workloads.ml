(* The three workloads: what set-up builds, what one op does, and the
   reference each op's output is checked against.

   Only the public functions of [Serve], [Pipeline], [Invoke], [Attach],
   [Epoch] and [World] are called from the framework; the loader and
   dispatch facades are not, so a serving-loop rewrite behind [Serve]
   leaves this file valid. *)

open Untenable
module World = Framework.World
module Epoch = Framework.Epoch
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Attach = Framework.Attach
module Serve = Framework.Serve
module P = Population

type kind = Serve_interp | Serve_jit_reload | Load_verify

let kinds =
  [ ("serve-interp", Serve_interp);
    ("serve-jit-reload", Serve_jit_reload);
    ("load-verify", Load_verify) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* Far above what any drawn image retires (a few hundred instructions at
   most); only a planted fault reaches it, such as the JIT branch bug
   turning a counted loop into a spin. *)
let fuel = 4096L

let fail fmt = Printf.ksprintf failwith fmt

let fresh_world ?(plant = []) () =
  let w = World.create_populated () in
  let fds =
    List.map (fun d -> (World.register_map w d).Maps.Bpf_map.id) P.map_defs
  in
  let e = P.env in
  if fds <> [ e.Fuzz.Gen.arr_fd; e.Fuzz.Gen.hash_fd; e.Fuzz.Gen.rb_fd ] then
    fail "map fds %s differ from the generator's environment"
      (String.concat "," (List.map string_of_int fds));
  List.iter (Helpers.Bugdb.force_on w.World.bugs) plant;
  w

let load_exn ?into w p =
  match Pipeline.load_ebpf ?into w p with
  | Ok l -> l
  | Error e ->
    fail "%s failed to load: %s" p.Ebpf.Program.name
      (Format.asprintf "%a" Pipeline.pp_error e)

let prog_id = function
  | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
  | Pipeline.Rustlite_ext _ -> invalid_arg "prog_id: not an eBPF image"

let load_rustlite_exn w ext =
  match Pipeline.load_rustlite w ext with
  | Ok l -> l
  | Error e -> fail "rustlite: %s" (Format.asprintf "%a" Pipeline.pp_error e)

(* ---- serving ---- *)

type serving = {
  world : World.t;
  engine : Serve.engine;
  leaves : int * int;
  reload_image : Ebpf.Program.t;
  mutable reload_prog : int;
  mutable reload_attach : int;
  mutable flip : bool;
}

(* The index inside every burst at which serve-jit-reload swaps epochs. *)
let reload_at = P.burst_size / 2

let serve_opts ~jit w =
  { Invoke.default_opts with
    Invoke.fuel = Some fuel;
    use_jit = jit;
    jit_branch_bug =
      jit && Helpers.Bugdb.active w.World.bugs Fuzz.Oracle.jit_branch_bug_key }

(* Load and attach the population: the three filters, the four generated
   images, then the Path B extension — eight attachments on one hook. *)
let build_serving ?plant ~jit ~images () =
  let w = fresh_world ?plant () in
  let leaf7 = prog_id (load_exn w (P.leaf 7)) in
  let leaf9 = prog_id (load_exn w (P.leaf 9)) in
  World.set_tail_call w ~index:P.env.Fuzz.Gen.tail_index ~prog_id:leaf7;
  let engine = Serve.create ~opts:(serve_opts ~jit w) ~policy:Serve.Isolate w in
  let attach l = Attach.attach engine.Serve.attach ~hook:P.hook l in
  List.iter (fun p -> ignore (attach (load_exn w p))) (P.filters ());
  let handles =
    List.map
      (fun p ->
        let l = load_exn w p in
        (l, attach l))
      images
  in
  ignore (attach (load_rustlite_exn w (P.rustlite_ext ())));
  let l0, a0 = List.hd handles in
  { world = w; engine; leaves = (leaf7, leaf9); reload_image = List.hd images;
    reload_prog = prog_id l0; reload_attach = a0.Attach.attach_id; flip = false }

(* The hot reload staged on [b]: re-load the first generated image (a
   verdict-cache hit), swap its attachment for the new handle, unload the
   old image and rewire the tail-call slot to the other leaf. *)
let reload s b =
  let l =
    Trace.span "pipeline.load_ebpf.into" (fun () ->
        load_exn ~into:b s.world s.reload_image)
  in
  let a =
    Trace.span "attach.swap" (fun () ->
        ignore (Attach.detach s.engine.Serve.attach ~attach_id:s.reload_attach);
        Attach.attach s.engine.Serve.attach ~hook:P.hook l)
  in
  Trace.span "epoch.stage" (fun () ->
      ignore (Epoch.unload b ~prog_id:s.reload_prog);
      s.flip <- not s.flip;
      Epoch.set_tail_call b ~index:P.env.Fuzz.Gen.tail_index
        ~prog_id:(if s.flip then snd s.leaves else fst s.leaves));
  s.reload_prog <- prog_id l;
  s.reload_attach <- a.Attach.attach_id

(* One op: one 64-event burst through [Serve.run].  Returns the burst's
   outcome checksum and its invocation count. *)
let serve_op ~reloads s burst =
  let reloads =
    if reloads then [ (reload_at, fun _ b -> reload s b) ] else []
  in
  let plan =
    Serve.plan ~gen:(fun i -> burst.(i)) ~reloads ~hook:P.hook
      ~count:(Array.length burst) ()
  in
  let st = Trace.span "serve.run" (fun () -> Serve.run s.engine plan) in
  (st.Serve.totals.Serve.ret_checksum, st.Serve.totals.Serve.invocations)

(* The same burst replayed on a twin, event by event through [Invoke.run]
   with [opts], folded with [Serve.checksum_add], reloads applied at the
   same boundary through [World.reconfigure].  With [reference_opts] (the
   interpreter) this is the reference every served burst is checked
   against. *)
let replay ~opts ~reloads twin burst =
  let w = twin.world in
  let ictx = twin.engine.Serve.ictx in
  let acc = ref 0L in
  Array.iteri
    (fun i pkt ->
      if reloads && i = reload_at then ignore (World.reconfigure w (reload twin));
      let opts = { opts with Invoke.skb_payload = Some pkt } in
      List.iter
        (fun (a : Attach.attachment) ->
          let name =
            match a.Attach.loaded with
            | Pipeline.Rustlite_ext _ -> "invoke.rustlite"
            | Pipeline.Ebpf_prog _ ->
              if opts.Invoke.use_jit then "invoke.jit" else "invoke.interp"
          in
          let r = Trace.span name (fun () -> Invoke.run ~opts ~ictx w a.Attach.loaded) in
          acc := Serve.checksum_add !acc r.Invoke.outcome)
        (Attach.attached twin.engine.Serve.attach ~hook:P.hook))
    burst;
  !acc

let reference_opts = { Invoke.default_opts with Invoke.fuel = Some fuel }

(* ---- load-verify ---- *)

type deploy = {
  clean : Ebpf.Program.t list;
  bad : Ebpf.Program.t list;
  ext : Rustlite.Toolchain.signed_extension;
}

let verdict_bits = (2 * P.clean_count) + 1 + P.reject_count

(* Every verdict right: each bit is one image's verdict matching its
   answer known by construction. *)
let expected_verdicts = (1 lsl verdict_bits) - 1

(* One op: a deploy batch on a fresh world — the clean images cold, the
   same images again (verdict-cache hits), the signed Path B extension,
   the images that must be refused at the gate — then everything
   unloaded.  Returns the verdict bits. *)
let deploy_op d =
  let w = Trace.span "world.create" (fun () -> fresh_world ()) in
  let bits = ref 0 and bit = ref 0 and ids = ref [] in
  let record ok =
    if ok then bits := !bits lor (1 lsl !bit);
    incr bit
  in
  let accept name p =
    match Trace.span name (fun () -> Pipeline.load_ebpf w p) with
    | Ok l ->
      ids := prog_id l :: !ids;
      record true
    | Error _ -> record false
  in
  List.iter (accept "pipeline.load_ebpf.cold") d.clean;
  List.iter (accept "pipeline.load_ebpf.hit") d.clean;
  record
    (match Trace.span "pipeline.load_rustlite" (fun () -> Pipeline.load_rustlite w d.ext) with
    | Ok _ -> true
    | Error _ -> false);
  List.iter
    (fun p ->
      match Trace.span "pipeline.load_ebpf.reject" (fun () -> Pipeline.load_ebpf w p) with
      | Ok l ->
        ids := prog_id l :: !ids;
        record false
      | Error e -> record (Pipeline.stage_of_error e = Pipeline.Gate))
    d.bad;
  Trace.span "epoch.unload_all" (fun () ->
      ignore
        (World.reconfigure w (fun b ->
             List.iter (fun id -> ignore (Epoch.unload b ~prog_id:id)) !ids)));
  !bits
