(* In-memory spans for the traced run.

   A span is recorded around one call from the benchmark into a layer of
   the program: name, start, end, parent span and the op id every span of
   one op shares.  Self time (duration minus the part covered by child
   spans) is folded per span name as spans close, so it stays exact after
   the store fills; the store keeps the first [capacity] spans for the
   Chrome trace written at exit.  With tracing off [span] is a plain call. *)

open Untenable

let now = Monotonic_clock.now

type span = {
  id : int;
  parent : int;  (* 0 = root of its op *)
  op : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

type frame = { fid : int; fname : string; ft0 : int64; mutable child_ns : int64 }

type agg = { mutable count : int; mutable total_ns : int64; mutable self_ns : int64 }

let capacity = 60_000
let on = ref false
let store : span array ref = ref [||]
let stored = ref 0
let dropped = ref 0
let next_id = ref 0
let cur_op = ref 0
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

(* The store is allocated on first use, so untraced runs carry none of it. *)
let set_enabled b =
  if b && Array.length !store = 0 then
    store := Array.make capacity { id = 0; parent = 0; op = 0; name = ""; t0 = 0L; t1 = 0L };
  on := b

(* Forget folded times; stored spans stay for the exported trace. *)
let reset_aggs () = Hashtbl.reset aggs

(* Every span opened inside [f] belongs to op [id]. *)
let with_op id f =
  let saved = !cur_op in
  cur_op := id;
  Fun.protect ~finally:(fun () -> cur_op := saved) f

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { count = 0; total_ns = 0L; self_ns = 0L } in
    Hashtbl.add aggs name a;
    a

let close fr t1 =
  let dur = Int64.sub t1 fr.ft0 in
  let a = agg fr.fname in
  a.count <- a.count + 1;
  a.total_ns <- Int64.add a.total_ns dur;
  a.self_ns <- Int64.add a.self_ns (Int64.sub dur fr.child_ns);
  let parent =
    match !stack with
    | p :: _ ->
      p.child_ns <- Int64.add p.child_ns dur;
      p.fid
    | [] -> 0
  in
  if !stored < Array.length !store then begin
    !store.(!stored) <-
      { id = fr.fid; parent; op = !cur_op; name = fr.fname; t0 = fr.ft0; t1 };
    incr stored
  end
  else incr dropped

let span name f =
  if not !on then f ()
  else begin
    incr next_id;
    let fr = { fid = !next_id; fname = name; ft0 = now (); child_ns = 0L } in
    stack := fr :: !stack;
    let finish () =
      let t1 = now () in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      close fr t1
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let find name = Hashtbl.find_opt aggs name

(* Mean duration of [name] in microseconds ([nan] if it never ran). *)
let mean_us name =
  match find name with
  | Some a when a.count > 0 -> Int64.to_float a.total_ns /. 1e3 /. float a.count
  | _ -> Float.nan

let total_us name =
  match find name with Some a -> Int64.to_float a.total_ns /. 1e3 | None -> 0.

let count name = match find name with Some a -> a.count | None -> 0

(* Self time folded by layer: the span name up to its first '.'. *)
let self_by_layer () =
  let layers = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      let layer =
        match String.index_opt name '.' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let prev = Option.value ~default:0L (Hashtbl.find_opt layers layer) in
      Hashtbl.replace layers layer (Int64.add prev a.self_ns))
    aggs;
  Hashtbl.fold (fun l ns acc -> (l, Int64.to_float ns /. 1e3) :: acc) layers []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* ---- Chrome trace-event export ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One lane (tid) per op; spans emitted depth-first as B/E pairs, so each
   lane is a proper span tree in time order. *)
let to_chrome () =
  let spans = Array.sub !store 0 !stored in
  let kids = Hashtbl.create 1024 in
  let present = Hashtbl.create 1024 in
  Array.iter (fun s -> Hashtbl.replace present s.id ()) spans;
  Array.iter
    (fun s ->
      (* a parent past the store's capacity never closed into it: treat
         the child as a root of its lane *)
      let p = if Hashtbl.mem present s.parent then s.parent else 0 in
      let siblings = Option.value ~default:[] (Hashtbl.find_opt kids (s.op, p)) in
      Hashtbl.replace kids (s.op, p) (s :: siblings))
    spans;
  let children op p =
    Option.value ~default:[] (Hashtbl.find_opt kids (op, p))
    |> List.sort (fun a b -> Int64.compare a.t0 b.t0)
  in
  let base = Array.fold_left (fun m s -> min m s.t0) Int64.max_int spans in
  let ts t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit ph s t =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":%s,\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\
          \"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}"
         (json_string s.name) ph (ts t) s.op s.op s.id s.parent)
  in
  let rec walk s =
    emit "B" s s.t0;
    List.iter walk (children s.op s.id);
    emit "E" s s.t1
  in
  let ops = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace ops s.op ()) spans;
  Hashtbl.fold (fun op () acc -> op :: acc) ops []
  |> List.sort Int.compare
  |> List.iter (fun op -> List.iter walk (children op 0));
  Buffer.add_string b
    (Printf.sprintf "],\"displayTimeUnit\":\"ns\",\"droppedSpans\":%d}" !dropped);
  Buffer.contents b

(* Write the trace and re-parse it with the repo's own validator. *)
let write_and_check path =
  let text = to_chrome () in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Telemetry.Trace_check.validate text
