(* The host's speed, measured beside the program.

   On a shared host the same instructions can take half again as long
   from one second to the next: other tenants contend for the core, its
   caches and its clock.  A wall-clock figure then moves with the
   neighbours as much as with the program.  So the benchmark interleaves a
   fixed reference chunk of its own with the program's work and times
   both.  A timed stretch of program work is rescaled by how long the
   reference chunks around it took against [reference_us]; the result is
   the time the work would take on a host that runs one chunk in exactly
   [reference_us].  The chunk depends on nothing in the program, so a
   change to the program moves the rescaled figures and not the reference.

   The chunk does not allocate, and its data lives outside the OCaml heap:
   it neither runs the collector nor leaves anything for the collector to
   do on the program's behalf, nor counts in the heap metrics. *)

let now = Monotonic_clock.now

(* The chunk's nominal time: the scale of every rescaled figure. *)
let reference_us = 500.

(* The chunk has two parts that react differently to contention: a
   dependent walk over a 256 KiB table (latency-bound, second-level cache)
   slows down less than the program's ops, and a multiply-and-store sweep
   over a 32 KiB array (throughput-bound, first-level cache) more.  On a
   2-core Xeon host whose op times swung by a factor of two, a chunk
   spending about 30% of its time in the walk and 70% in the sweep
   followed the op times of the workloads with a log-log slope of 0.9 to
   1.0 (correlation 0.90 to 0.99) over half-second blocks; the walk alone
   had a slope of 2.4, the sweep alone 0.8. *)
let table_bits = 15

let table =
  let n = 1 lsl table_bits in
  let t = Bigarray.(Array1.create int c_layout n) in
  (* Sattolo's shuffle of the identity gives one cycle through every slot *)
  for i = 0 to n - 1 do t.{i} <- i done;
  let s = ref 0x2545F491 in
  for i = n - 1 downto 1 do
    s := (!s * 1103515245 + 12345) land 0x3FFF_FFFF;
    let j = !s mod i in
    let x = t.{i} in
    t.{i} <- t.{j};
    t.{j} <- x
  done;
  t

let walk_steps = 12_000

let sweep_len = 4096
let sweep = Bigarray.(Array1.init int c_layout sweep_len (fun i -> i))
let sweep_rounds = 56

(* Read one word per cache line of the table, so that the timed walk does
   not pay for whatever the program's work evicted from the caches: the
   chunk's time must not depend on the program. *)
let warm () =
  let s = ref 0 in
  for i = 0 to ((1 lsl table_bits) / 8) - 1 do
    s := !s + Bigarray.Array1.unsafe_get table (i * 8)
  done;
  ignore (Sys.opaque_identity !s)

let chunk () =
  let t = table in
  let p = ref 0 in
  for _ = 1 to walk_steps do
    p := Bigarray.Array1.unsafe_get t !p
  done;
  let a = sweep in
  let s = ref !p in
  for r = 1 to sweep_rounds do
    for i = 0 to sweep_len - 1 do
      let x = Bigarray.Array1.unsafe_get a i in
      s := !s + (x * r);
      Bigarray.Array1.unsafe_set a i (((x * 31) + i) land 0xFFFF)
    done
  done;
  ignore (Sys.opaque_identity !s)

(* One chunk's time in microseconds. *)
let sample () =
  warm ();
  let t0 = now () in
  chunk ();
  Int64.to_float (Int64.sub (now ()) t0) /. 1e3

let median_of a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The factor that rescales work timed amid [samples] to the reference
   host: below 1 when the chunks ran slow. *)
let factor samples = reference_us /. median_of samples

(* Time [f] between [k] chunks before and [k] after; returns its result,
   its wall time in seconds and that time rescaled. *)
let timed ?(k = 8) f =
  let before = Array.init k (fun _ -> sample ()) in
  let t0 = now () in
  let v = f () in
  let wall = Int64.to_float (Int64.sub (now ()) t0) /. 1e9 in
  let after = Array.init k (fun _ -> sample ()) in
  (v, wall, wall *. factor (Array.append before after))

(* Per-item factors for a sequence of work items, item [i] having been
   timed right after chunk [cal.(i)]: the median of the chunks within
   [radius] items either side, so that one or two interrupted chunks move
   no item.  A wider neighbourhood steadies the median op but blurs the
   switches between the host's fast and slow spells, and every op rescaled
   by the wrong spell lands in the tail: with 25 items either side the
   spread of [op_p90_us] across runs was three to four times what it is
   with 2. *)
let radius = 2

let factors (cal : float array) =
  let n = Array.length cal in
  Array.init n (fun i ->
      let lo = max 0 (i - radius) and hi = min (n - 1) (i + radius) in
      factor (Array.sub cal lo (hi - lo + 1)))
