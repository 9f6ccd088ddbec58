(* A generic worklist dataflow engine over Ebpf.Cfg.

   The lattice is supplied as a module (join-semilattice with a widening
   hook); the engine computes per-block in/out facts to a fixpoint, forward
   or backward.  Widening is applied at loop heads (targets of back edges in
   the traversal direction) once a block has been re-joined more than
   [widen_delay] times, so infinite-height lattices — the register-state
   domain reuses Tnum plus 64-bit bounds — still terminate.

   The widening contract: at a loop head the engine widens against
   [join prev next], never against the bare [next].  A lattice's [widen]
   may hand back [next] unchanged when no bound grew (Reg_state's does),
   and a branch refinement can make the freshly flowed fact narrower than
   the previous one; widening against the bare fact would let the head
   swing down and up again until the safety cap stopped the solve.
   Joining first makes each loop head's in-facts climb, so [widen] only
   ever sees growth.

   Branch-sensitive passes refine the fact flowing along each edge with the
   optional [edge_refine] hook (the fall-through and taken edges of a
   conditional jump learn different bounds); passes that only care about
   call effects leave it out. *)

module Cfg = Ebpf.Cfg

module type LATTICE = sig
  type fact

  val bottom : fact
  (** No information: the in-fact of a block no path has reached yet. *)

  val entry : fact
  (** The boundary fact: at the CFG entry (forward) or at every exit block
      (backward). *)

  val equal : fact -> fact -> bool

  val join : fact -> fact -> fact
  (** Least upper bound; must be monotone w.r.t. the implied order. *)

  val widen : prev:fact -> fact -> fact
  (** Accelerate convergence at loop heads.  [fun ~prev:_ f -> f] is fine
      for finite lattices; infinite-height ones must jump moving components
      to their extremes.  The engine passes [join prev next] as the second
      argument, so it is never below [prev]. *)
end

type direction = Forward | Backward

module Make (L : LATTICE) = struct
  type result = {
    block_in : (int, L.fact) Hashtbl.t;
      (* fact at block start (forward) / block end (backward) *)
    block_out : (int, L.fact) Hashtbl.t;
    iterations : int;  (* block transfer evaluations until fixpoint *)
    converged : bool;  (* false only if the safety cap stopped the solve *)
  }

  let in_fact r pc = Option.value ~default:L.bottom (Hashtbl.find_opt r.block_in pc)
  let out_fact r pc = Option.value ~default:L.bottom (Hashtbl.find_opt r.block_out pc)

  let solve ?(dir = Forward) ?(widen_delay = 2) ?max_iterations
      ?(edge_refine = fun ~from:_ ~into:_ fact -> fact) (cfg : Cfg.t)
      ~(transfer : Cfg.block -> L.fact -> L.fact) : result =
    let blocks = Cfg.blocks_sorted cfg in
    let preds = Cfg.preds cfg in
    (* Edges in traversal direction: forward uses succs, backward preds. *)
    let edges_into pc =
      match dir with
      | Forward -> Option.value ~default:[] (Hashtbl.find_opt preds pc)
      | Backward -> Cfg.succs_of cfg pc
    in
    let edges_out_of pc =
      match dir with
      | Forward -> Cfg.succs_of cfg pc
      | Backward -> Option.value ~default:[] (Hashtbl.find_opt preds pc)
    in
    (* Boundary blocks get L.entry joined into their in-fact. *)
    let is_boundary pc =
      match dir with
      | Forward -> pc = cfg.Cfg.entry
      | Backward -> Cfg.succs_of cfg pc = []
    in
    (* Loop heads in traversal direction: widen here.  Backward traversal
       sees forward back edges reversed, so the head is the edge source. *)
    let loop_heads = Hashtbl.create 8 in
    List.iter
      (fun (from, into) ->
        Hashtbl.replace loop_heads
          (match dir with Forward -> into | Backward -> from)
          ())
      (Cfg.back_edges cfg);
    let block_in = Hashtbl.create 16 in
    let block_out = Hashtbl.create 16 in
    let visits = Hashtbl.create 16 in
    let order =
      match dir with Forward -> blocks | Backward -> List.rev blocks
    in
    let queued = Hashtbl.create 16 in
    let queue = Queue.create () in
    let enqueue pc =
      if not (Hashtbl.mem queued pc) then begin
        Hashtbl.replace queued pc ();
        Queue.add pc queue
      end
    in
    List.iter (fun (b : Cfg.block) -> enqueue b.Cfg.start_pc) order;
    let cap =
      match max_iterations with
      | Some m -> m
      | None -> 64 * (1 + List.length blocks) * (widen_delay + 2)
    in
    let iterations = ref 0 in
    let converged = ref true in
    (try
       while not (Queue.is_empty queue) do
         let pc = Queue.pop queue in
         Hashtbl.remove queued pc;
         match Hashtbl.find_opt cfg.Cfg.blocks pc with
         | None -> ()
         | Some b ->
           incr iterations;
           if !iterations > cap then begin
             converged := false;
             raise Exit
           end;
           let flowed =
             List.fold_left
               (fun acc p ->
                 match Hashtbl.find_opt block_out p with
                 | None -> acc
                 | Some f -> L.join acc (edge_refine ~from:p ~into:pc f))
               L.bottom (edges_into pc)
           in
           let inb = if is_boundary pc then L.join L.entry flowed else flowed in
           let n = 1 + Option.value ~default:0 (Hashtbl.find_opt visits pc) in
           Hashtbl.replace visits pc n;
           let inb =
             if n > widen_delay && Hashtbl.mem loop_heads pc then
               match Hashtbl.find_opt block_in pc with
               | Some prev -> L.widen ~prev (L.join prev inb)
               | None -> inb
             else inb
           in
           Hashtbl.replace block_in pc inb;
           let out = transfer b inb in
           let changed =
             match Hashtbl.find_opt block_out pc with
             | Some old -> not (L.equal old out)
             | None -> true
           in
           if changed then begin
             Hashtbl.replace block_out pc out;
             List.iter enqueue (edges_out_of pc)
           end
       done
     with Exit -> ());
    { block_in; block_out; iterations = !iterations; converged = !converged }
end

(* Walk the instructions of one block, threading a per-insn accumulator —
   the shape every pass's transfer function and reporting replay share. *)
let fold_block (insns : Ebpf.Insn.insn array) (b : Cfg.block) ~init ~f =
  let acc = ref init in
  for pc = b.Cfg.start_pc to min b.Cfg.end_pc (Array.length insns - 1) do
    acc := f pc insns.(pc) !acc
  done;
  !acc
