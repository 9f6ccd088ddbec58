(* Static cost & termination analysis (SCEV-lite).

   A whole-program worst-case instruction bound built from three pieces:

   1. the interval facts the elide pass already computes (a forward
      abstract interpretation over the verifier's Reg_state domain, with
      widening at loop heads), reused verbatim — the loop-entry value of
      an induction register is read off the preheader edge, which is never
      widened, so it stays exact;

   2. natural-loop trip counts: for each DFS back edge, the loop body is
      the head plus everything that reaches the tail without passing the
      head.  A loop is bounded when it has a single back edge, a single
      entry, a monotone induction register (exactly one write in the whole
      body, a W64 add/sub of a nonzero immediate, sitting in the head or
      tail block so it executes exactly once per circuit) and an exit test
      (a W64 conditional jump against an immediate, in the head or tail
      block, with exactly one successor outside the body).  Every formula
      over-approximates — slack is fine, undercounting never is — and
      anything the rules cannot prove collapses to [Unbounded];

   3. per-block instruction costs composed through the loop nest: each
      block's length times the product of the trip counts of every loop
      containing it, all in saturating arithmetic.

   The per-pc [spans] vector is the hot-path payoff: [spans.(pc)] is the
   length of the longest straight-line run starting at [pc] that a single
   up-front fuel check can cover.  A window never extends past a helper
   call or bpf-to-bpf call (the callee may re-enter the interpreter on the
   same fuel account mid-window), though it may end on one.  Programs this
   pass proves [Bounded] let the interpreter and JIT hoist the per-insn
   fuel check to window entry; fuel is still *charged* per retired
   instruction, so trip points, retired counts and virtual-clock values
   are bit-identical to the unbatched path.

   Anything that escapes the cost model — a bpf-to-bpf call (callee cost
   not modelled) or a helper whose [Proto.unbounded] flag is set
   (bpf_loop-style callback iteration drains fuel the caller's instruction
   count does not see) — forces [Unbounded]. *)

module Cfg = Ebpf.Cfg
module Insn = Ebpf.Insn
module Reg_state = Bpf_verifier.Reg_state

let pass_name = "bound"

type bound = Bounded of int | Unbounded

type loop_info = {
  head : int;          (* head block start pc *)
  body_blocks : int;   (* blocks in the natural-loop body *)
  reg : int option;    (* induction register, when inferred *)
  trips : int option;  (* sound upper bound on body executions *)
}

type result = {
  bound : bound;
  spans : int array;  (* per-pc fuel-check window length (>= 1) *)
  loops : loop_info list;  (* ascending head pc *)
  findings : Finding.t list;
}

let pp_bound ppf = function
  | Bounded n -> Format.fprintf ppf "%d" n
  | Unbounded -> Format.fprintf ppf "unbounded"

(* Saturating arithmetic: anything at or above [cost_cap] means "too big
   to be a useful budget" and collapses to Unbounded. *)
let cost_cap = max_int / 4

let sat_add a b = if a >= cost_cap - b then cost_cap else a + b
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a >= cost_cap / b then cost_cap else a * b

let is_call = function Insn.Call _ | Insn.Call_sub _ -> true | _ -> false

(* Window lengths: scanning each block backwards, a call resets the run to
   1 (so a window may *end* on a call but never reach past it) and the
   block's last insn starts a fresh run (control transfers end windows). *)
let compute_spans insns (cfg : Cfg.t) =
  let n = Array.length insns in
  let spans = Array.make n 1 in
  List.iter
    (fun (b : Cfg.block) ->
      let e = min b.Cfg.end_pc (n - 1) in
      for pc = e downto b.Cfg.start_pc do
        if pc = e || is_call insns.(pc) then spans.(pc) <- 1
        else spans.(pc) <- spans.(pc + 1) + 1
      done)
    (Cfg.blocks_sorted cfg);
  spans

(* The continue condition, given which side of the branch stays in the
   loop.  [Set] has no usable negation (jset tests a bit mask). *)
let negate = function
  | Insn.Eq -> Some Insn.Ne
  | Insn.Ne -> Some Insn.Eq
  | Insn.Gt -> Some Insn.Le
  | Insn.Le -> Some Insn.Gt
  | Insn.Ge -> Some Insn.Lt
  | Insn.Lt -> Some Insn.Ge
  | Insn.Sgt -> Some Insn.Sle
  | Insn.Sle -> Some Insn.Sgt
  | Insn.Sge -> Some Insn.Slt
  | Insn.Slt -> Some Insn.Sge
  | Insn.Set -> None

(* Unsigned ceiling division, wrap-safe ([d] may be any 64-bit value). *)
let ceil_div_u d s =
  if Int64.equal d 0L then 0L
  else Int64.add (Int64.unsigned_div (Int64.sub d 1L) s) 1L

(* Upper bound on the number of *circuits* (back-edge traversals) a loop
   can make while [r cond limit] keeps holding, when the induction value
   advances by [step] exactly once per circuit.  Every branch either
   proves the bound (including that the step cannot jump over the exit
   region and wrap around) or gives up with None. *)
let rec circuits ~cond ~limit ~step (r : Reg_state.t) : int64 option =
  if not (Reg_state.is_scalar r) || step = 0 then None
  else
    let s = Int64.of_int step in
    let s' = Int64.neg s in
    (* abs, for negative steps *)
    let open Reg_state in
    match (cond : Insn.cond) with
    | Insn.Eq ->
      (* continue while r = limit: one step later the value differs by a
         nonzero s, so at most two tests can pass *)
      Some 2L
    | Insn.Ne when step = 1 ->
      (* exits only by hitting [limit] exactly: every possible initial
         value must sit strictly below it (unsigned), else the counter
         walks past and wraps *)
      if u_lt r.umax limit then Some (Int64.sub limit r.umin) else None
    | Insn.Ne when step = -1 ->
      if u_lt limit r.umin then Some (Int64.sub r.umax limit) else None
    | Insn.Ne -> None
    | Insn.Lt ->
      (* continue while r <u limit *)
      if step < 0 then None
      else if not (u_lt r.umin limit) then Some 0L
      else if u_lt (Int64.neg limit) s then None
        (* exit region [limit, 2^64) is narrower than the step: the
           counter can jump over it and wrap *)
      else Some (ceil_div_u (Int64.sub limit r.umin) s)
    | Insn.Le ->
      if Int64.equal limit (-1L) then None (* r <=u 2^64-1 always holds *)
      else circuits ~cond:Insn.Lt ~limit:(Int64.add limit 1L) ~step r
    | Insn.Gt ->
      (* continue while r >u limit *)
      if step > 0 then None
      else if not (u_lt limit r.umax) then Some 0L
      else if u_lt (Int64.add limit 1L) s' then None
      else Some (ceil_div_u (Int64.sub r.umax limit) s')
    | Insn.Ge ->
      if Int64.equal limit 0L then None (* r >=u 0 always holds *)
      else circuits ~cond:Insn.Gt ~limit:(Int64.sub limit 1L) ~step r
    | Insn.Slt ->
      (* continue while r <s limit *)
      if step < 0 then None
      else if r.smin >= limit then Some 0L
      else if signed_add_overflows (Int64.sub limit 1L) s then None
        (* a value just under the limit could overflow past INT64_MAX *)
      else if signed_sub_overflows limit r.smin then None
      else Some (ceil_div_u (Int64.sub limit r.smin) s)
    | Insn.Sle ->
      if Int64.equal limit Int64.max_int then None
      else circuits ~cond:Insn.Slt ~limit:(Int64.add limit 1L) ~step r
    | Insn.Sgt ->
      (* continue while r >s limit *)
      if step > 0 then None
      else if r.smax <= limit then Some 0L
      else if signed_sub_overflows (Int64.add limit 1L) s' then None
      else if signed_sub_overflows r.smax limit then None
      else Some (ceil_div_u (Int64.sub r.smax limit) s')
    | Insn.Sge ->
      if Int64.equal limit Int64.min_int then None
      else circuits ~cond:Insn.Sgt ~limit:(Int64.sub limit 1L) ~step r
    | Insn.Set -> None

(* Registers an instruction writes (the interpreter's ground truth). *)
let written = function
  | Insn.Alu { dst; _ } | Insn.Ld_imm64 (dst, _) | Insn.Ld_map_fd (dst, _)
  | Insn.Ldx { dst; _ } ->
    [ dst ]
  | Insn.Atomic { aop; src; fetch; _ } ->
    (if fetch || aop = Insn.A_xchg then [ src ] else [])
    @ (if aop = Insn.A_cmpxchg then [ 0 ] else [])
  | Insn.Call _ | Insn.Call_sub _ -> [ 0 ]
  | Insn.St _ | Insn.Stx _ | Insn.Jmp _ | Insn.Ja _ | Insn.Exit -> []

type loop_internal = {
  li_head : int;
  li_tails : int list;
  li_body : (int, unit) Hashtbl.t;
  mutable li_reg : int option;
  mutable li_trips : int option;
}

let run ~(solved : Elide_pass.Solver.result) (insns : Insn.insn array)
    (cfg : Cfg.t) : result =
  let n = Array.length insns in
  let spans = compute_spans insns cfg in
  let live = Cfg.reachable cfg in
  let findings = ref [] in
  let finding ~pc severity msg =
    findings := Finding.make ~pass:pass_name ~pc ~severity msg :: !findings
  in
  (* -- escapes from the cost model (reachable code only) -- *)
  let escape = ref false in
  Hashtbl.iter
    (fun start () ->
      match Hashtbl.find_opt cfg.Cfg.blocks start with
      | None -> ()
      | Some b ->
        for pc = b.Cfg.start_pc to min b.Cfg.end_pc (n - 1) do
          match insns.(pc) with
          | Insn.Call_sub _ ->
            escape := true;
            finding ~pc Finding.Warning
              "bpf-to-bpf call: callee cost is outside this analysis; \
               worst case unbounded"
          | Insn.Call id -> (
            match Helpers.Registry.find id with
            | Some d when Helpers.Proto.unbounded d.Helpers.Registry.proto ->
              escape := true;
              finding ~pc Finding.Warning
                (Printf.sprintf
                   "helper %s is unbounded (bpf_loop-style callback \
                    iteration); worst case unbounded"
                   d.Helpers.Registry.name)
            | _ -> ())
          | _ -> ()
        done)
    live;
  (* -- natural loops from the DFS back edges -- *)
  let preds = Cfg.preds cfg in
  let live_preds pc =
    List.filter (Hashtbl.mem live)
      (Option.value ~default:[] (Hashtbl.find_opt preds pc))
  in
  let by_head = Hashtbl.create 8 in
  List.iter
    (fun (tail, head) ->
      if Hashtbl.mem live tail && Hashtbl.mem live head then
        Hashtbl.replace by_head head
          (tail :: Option.value ~default:[] (Hashtbl.find_opt by_head head)))
    (Cfg.back_edges cfg);
  let loops =
    Hashtbl.fold
      (fun head tails acc ->
        let body = Hashtbl.create 8 in
        Hashtbl.replace body head ();
        let stack = ref tails in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | b :: tl ->
            stack := tl;
            if not (Hashtbl.mem body b) then begin
              Hashtbl.replace body b ();
              stack := live_preds b @ !stack
            end
        done;
        { li_head = head; li_tails = tails; li_body = body; li_reg = None;
          li_trips = None }
        :: acc)
      by_head []
    |> List.sort (fun a b -> compare a.li_head b.li_head)
  in
  (* [blk] executes exactly once per circuit of [l] iff no cycle through
     [blk] avoids [l]'s head.  Every cycle is covered by the natural loop
     of one of its back edges, so it suffices that every *other* loop
     containing [blk] also contains [l]'s head (i.e. encloses [l]); a loop
     containing [blk] but not the head is an inner (or disjoint, in
     irreducible graphs) cycle that could re-run [blk] mid-circuit. *)
  let once_per (l : loop_internal) blk =
    List.for_all
      (fun m ->
        m == l
        || (not (Hashtbl.mem m.li_body blk))
        || Hashtbl.mem m.li_body l.li_head)
      loops
  in
  let infer (l : loop_internal) =
    match l.li_tails with
    | [ tail ] when solved.Elide_pass.Solver.converged ->
      let head = l.li_head in
      let single_entry =
        Hashtbl.fold
          (fun b () ok ->
            ok
            && (b = head
               || List.for_all (fun p -> Hashtbl.mem l.li_body p)
                    (live_preds b)))
          l.li_body true
      in
      if not single_entry then ()
      else begin
        (* induction candidates: exactly one write in the whole body, and
           that write is a W64 add/sub-immediate in the head or tail block
           (each executes exactly once per circuit) *)
        let write_count = Array.make 11 0 in
        let write_site = Array.make 11 None in
        Hashtbl.iter
          (fun start () ->
            match Hashtbl.find_opt cfg.Cfg.blocks start with
            | None -> ()
            | Some b ->
              for pc = b.Cfg.start_pc to min b.Cfg.end_pc (n - 1) do
                List.iter
                  (fun r ->
                    write_count.(r) <- write_count.(r) + 1;
                    write_site.(r) <- Some (start, insns.(pc)))
                  (written insns.(pc))
              done)
          l.li_body;
        let step_of r =
          if write_count.(r) <> 1 then None
          else
            match write_site.(r) with
            | Some (blk, Insn.Alu { op; width = Insn.W64; src = Insn.Imm k; _ })
              when (blk = l.li_head || blk = tail)
                   && once_per l blk && k <> 0 -> (
              match op with
              | Insn.Add -> Some k
              | Insn.Sub -> Some (-k)
              | _ -> None)
            | _ -> None
        in
        (* loop-entry facts: joined over the non-back-edge predecessor
           edges of the head — never widened, so exact for counted loops *)
        let init_fact =
          let base =
            if head = cfg.Cfg.entry then Elide_pass.L.entry
            else Elide_pass.L.Bot
          in
          List.fold_left
            (fun acc p ->
              if p = tail then acc
              else
                Elide_pass.L.join acc
                  (Elide_pass.edge_refine insns cfg ~from:p ~into:head
                     (Elide_pass.Solver.out_fact solved p)))
            base (live_preds head)
        in
        (* exit tests: a W64 conditional jump against an immediate, in the
           head or tail block, with exactly one successor outside the body *)
        let consider start =
          match Hashtbl.find_opt cfg.Cfg.blocks start with
          | Some b when once_per l start -> (
            match insns.(min b.Cfg.end_pc (n - 1)) with
            | Insn.Jmp { cond; width = Insn.W64; dst; src = Insn.Imm c; off }
              -> (
              let e = min b.Cfg.end_pc (n - 1) in
              let tpc = e + 1 + off and fpc = e + 1 in
              let inside pc =
                Hashtbl.mem l.li_body pc && Hashtbl.mem cfg.Cfg.blocks pc
              in
              if inside tpc = inside fpc then None
              else
                let continue_cond =
                  if inside tpc then Some cond else negate cond
                in
                match (continue_cond, step_of dst, init_fact) with
                | Some cc, Some step, Elide_pass.L.Regs regs -> (
                  match
                    circuits ~cond:cc ~limit:(Int64.of_int c) ~step regs.(dst)
                  with
                  | Some circ
                    when Reg_state.u_lt circ (Int64.of_int cost_cap) ->
                    (* +1: a do-while body runs once before its first test *)
                    Some (dst, Int64.to_int circ + 1)
                  | _ -> None)
                | _ -> None)
            | _ -> None)
          | _ -> None
        in
        let candidates =
          List.filter_map consider
            (List.sort_uniq compare [ l.li_head; tail ])
        in
        match
          List.sort (fun (_, a) (_, b) -> compare a b) candidates
        with
        | (r, t) :: _ ->
          l.li_reg <- Some r;
          l.li_trips <- Some t
        | [] -> ()
      end
    | _ -> ()
  in
  List.iter infer loops;
  List.iter
    (fun l ->
      match l.li_trips with
      | Some t ->
        finding ~pc:l.li_head Finding.Info
          (Printf.sprintf "loop at block %d: at most %d iteration(s) (r%d)"
             l.li_head t
             (Option.value ~default:(-1) l.li_reg))
      | None ->
        finding ~pc:l.li_head Finding.Warning
          (Printf.sprintf
             "loop at block %d: trip count not inferable; worst case \
              unbounded"
             l.li_head))
    loops;
  (* -- compose per-block costs through the loop nest -- *)
  let bound =
    if !escape || List.exists (fun l -> l.li_trips = None) loops then
      Unbounded
    else begin
      let total = ref 0 in
      Hashtbl.iter
        (fun start () ->
          match Hashtbl.find_opt cfg.Cfg.blocks start with
          | None -> ()
          | Some b ->
            let len = min b.Cfg.end_pc (n - 1) - b.Cfg.start_pc + 1 in
            let mult =
              List.fold_left
                (fun m l ->
                  if Hashtbl.mem l.li_body start then
                    sat_mul m (Option.get l.li_trips)
                  else m)
                1 loops
            in
            total := sat_add !total (sat_mul len mult))
        live;
      if !total >= cost_cap then Unbounded else Bounded !total
    end
  in
  { bound;
    spans;
    loops =
      List.map
        (fun l ->
          { head = l.li_head; body_blocks = Hashtbl.length l.li_body;
            reg = l.li_reg; trips = l.li_trips })
        loops;
    findings = Finding.sort !findings }
