(* Redundant-guard elision.

   A forward abstract interpretation over the verifier's own register-state
   domain (Reg_state: tnum + signed/unsigned 64-bit bounds), one state per
   register, joined pointwise at block boundaries and widened at loop
   heads.  Where the facts prove a conditional jump can only go one way —
   a bounds check dominated by an earlier check, a null test of a constant,
   a range already established by the surrounding arithmetic — the pass
   records the resolved target in a per-pc elision vector that the
   interpreter and JIT consume to skip the dynamic test.

   Soundness discipline: a branch is resolved with the verifier's own
   [branch_taken], and only for W64 jumps on Scalar facts (pointer rtypes
   carry concrete addresses the bounds do not describe).  Constant facts
   are computed with the interpreter's exact Int64 semantics — including
   div-by-zero -> 0, mod-by-zero -> dividend, and shift-count masking —
   and everything the transfer functions cannot bound exactly collapses to
   an unknown scalar, which [branch_taken] can never resolve.  Over-
   approximate facts therefore only ever keep a guard, never drop a live
   one. *)

module Cfg = Ebpf.Cfg
module Insn = Ebpf.Insn
module Reg_state = Bpf_verifier.Reg_state
module Verifier = Bpf_verifier.Verifier

let pass_name = "elide"

let n_regs = 11

let entry_regs () =
  let regs = Array.make n_regs Reg_state.not_init in
  regs.(1) <- Reg_state.pointer Reg_state.Ptr_ctx;
  regs.(10) <- Reg_state.pointer Reg_state.Ptr_stack;
  regs

module L = struct
  type fact = Bot | Regs of Reg_state.t array

  let bottom = Bot
  let entry = Regs (entry_regs ())

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Regs x, Regs y -> x = y
    | _ -> false

  let join a b =
    match (a, b) with
    | Bot, f | f, Bot -> f
    | Regs x, Regs y -> Regs (Array.init n_regs (fun i -> Reg_state.join x.(i) y.(i)))

  let widen ~prev next =
    match (prev, next) with
    | Regs p, Regs n ->
      Regs (Array.init n_regs (fun i -> Reg_state.widen ~prev:p.(i) n.(i)))
    | _ -> next
end

module Solver = Dataflow.Make (L)

let u32 = Int64.logand 0xffff_ffffL
let sext32 x = Int64.shift_right (Int64.shift_left x 32) 32

(* Exact 64-bit ALU, byte-for-byte the interpreter's semantics. *)
let exact64 (op : Insn.alu_op) d s =
  match op with
  | Insn.Add -> Int64.add d s
  | Insn.Sub -> Int64.sub d s
  | Insn.Mul -> Int64.mul d s
  | Insn.Div -> if Int64.equal s 0L then 0L else Int64.unsigned_div d s
  | Insn.Mod -> if Int64.equal s 0L then d else Int64.unsigned_rem d s
  | Insn.Or -> Int64.logor d s
  | Insn.And -> Int64.logand d s
  | Insn.Xor -> Int64.logxor d s
  | Insn.Mov -> s
  | Insn.Neg -> Int64.neg d
  | Insn.Lsh -> Int64.shift_left d (Int64.to_int (Int64.logand s 63L))
  | Insn.Rsh -> Int64.shift_right_logical d (Int64.to_int (Int64.logand s 63L))
  | Insn.Arsh -> Int64.shift_right d (Int64.to_int (Int64.logand s 63L))

(* Exact 32-bit ALU: low words in, zero-extended result out. *)
let exact32 (op : Insn.alu_op) d s =
  let d32 = u32 d and s32 = u32 s in
  let r32 =
    match op with
    | Insn.Add -> Int64.add d32 s32
    | Insn.Sub -> Int64.sub d32 s32
    | Insn.Mul -> Int64.mul d32 s32
    | Insn.Div -> if Int64.equal s32 0L then 0L else Int64.unsigned_div d32 s32
    | Insn.Mod -> if Int64.equal s32 0L then d32 else Int64.unsigned_rem d32 s32
    | Insn.Or -> Int64.logor d32 s32
    | Insn.And -> Int64.logand d32 s32
    | Insn.Xor -> Int64.logxor d32 s32
    | Insn.Mov -> s32
    | Insn.Neg -> Int64.neg d32
    | Insn.Lsh -> Int64.shift_left d32 (Int64.to_int (Int64.logand s32 31L))
    | Insn.Rsh ->
      Int64.shift_right_logical (u32 d32) (Int64.to_int (Int64.logand s32 31L))
    | Insn.Arsh -> Int64.shift_right (sext32 d32) (Int64.to_int (Int64.logand s32 31L))
  in
  u32 r32

(* The 32-bit result set is [0, 2^32): the widest sound fact for a W32 op
   the transfers cannot track exactly. *)
let unknown32 = Reg_state.zext32 Reg_state.unknown_scalar

let operand regs = function
  | Insn.Reg r -> regs.(r)
  | Insn.Imm i -> Reg_state.const_scalar (Int64.of_int i)

let alu_result (op : Insn.alu_op) (width : Insn.width) d s =
  let open Reg_state in
  match width with
  | Insn.W64 -> (
    match (const_value d, const_value s) with
    | _ when op = Insn.Mov -> s (* copies anything, pointers included *)
    | Some cd, Some cs -> const_scalar (exact64 op cd cs)
    | Some cd, _ when op = Insn.Neg -> const_scalar (Int64.neg cd)
    | _ when not (is_scalar d && (is_scalar s || op = Insn.Neg)) ->
      unknown_scalar (* pointer arithmetic: an address, untracked *)
    | _ -> (
      match op with
      | Insn.Add -> scalar_add d s
      | Insn.Sub -> scalar_sub d s
      | Insn.Mul -> scalar_mul d s
      | Insn.And -> scalar_and d s
      | Insn.Or -> scalar_or d s
      | Insn.Xor -> scalar_xor d s
      | Insn.Neg -> scalar_neg d
      | Insn.Lsh | Insn.Rsh | Insn.Arsh -> (
        match const_value s with
        | Some c ->
          let shift = Int64.to_int (Int64.logand c 63L) in
          let sop =
            match op with
            | Insn.Lsh -> `Lsh
            | Insn.Rsh -> `Rsh
            | _ -> `Arsh
          in
          scalar_shift_const sop d shift
        | None -> unknown_scalar)
      | Insn.Div -> (
        match const_value s with
        | Some c -> scalar_div_const d c
        | None -> unknown_scalar)
      | Insn.Mod -> unknown_scalar (* div bounds do NOT bound a remainder *)
      | Insn.Mov -> s))
  | Insn.W32 -> (
    match (const_value d, const_value s) with
    | _ when op = Insn.Mov ->
      if is_scalar s then zext32 s else unknown32
    | Some cd, Some cs -> const_scalar (exact32 op cd cs)
    | Some cd, _ when op = Insn.Neg -> const_scalar (exact32 Insn.Neg cd 0L)
    | _ -> unknown32)

let transfer_insn regs pc insn =
  ignore pc;
  match insn with
  | Insn.Alu { op; width; dst; src } ->
    regs.(dst) <- alu_result op width regs.(dst) (operand regs src)
  | Insn.Ld_imm64 (dst, v) -> regs.(dst) <- Reg_state.const_scalar v
  | Insn.Ld_map_fd (dst, fd) ->
    (* runtime value is the raw fd, but treat it as a handle so no branch
       on a map pointer is ever elided *)
    regs.(dst) <- Reg_state.pointer (Reg_state.Map_handle { map_id = fd })
  | Insn.Ldx { dst; _ } -> regs.(dst) <- Reg_state.unknown_scalar
  | Insn.St _ | Insn.Stx _ -> ()
  | Insn.Atomic { aop; src; fetch; _ } ->
    if fetch || aop = Insn.A_xchg then regs.(src) <- Reg_state.unknown_scalar;
    if aop = Insn.A_cmpxchg then regs.(0) <- Reg_state.unknown_scalar
  | Insn.Call _ | Insn.Call_sub _ ->
    (* interpreter and JIT write only r0; frames below use their own
       register file, so r1..r9 survive the call *)
    regs.(0) <- Reg_state.unknown_scalar
  | Insn.Jmp _ | Insn.Ja _ | Insn.Exit -> ()

let transfer insns (b : Cfg.block) (fact : L.fact) =
  match fact with
  | L.Bot -> L.Bot
  | L.Regs regs ->
    let regs = Array.copy regs in
    for pc = b.Cfg.start_pc to min b.Cfg.end_pc (Array.length insns - 1) do
      transfer_insn regs pc insns.(pc)
    done;
    L.Regs regs

(* The constant the jump compares against, if the analysis knows it. *)
let jmp_const regs = function
  | Insn.Imm i -> Some (Int64.of_int i)
  | Insn.Reg r -> Reg_state.const_value regs.(r)

(* Sharpen the fact flowing along one CFG edge with what the branch on the
   source block's last insn proves — the verifier's own refinement. *)
let edge_refine insns (cfg : Cfg.t) ~from ~into (fact : L.fact) =
  match fact with
  | L.Bot -> L.Bot
  | L.Regs regs -> (
    match Hashtbl.find_opt cfg.Cfg.blocks from with
    | None -> fact
    | Some b -> (
      match insns.(b.Cfg.end_pc) with
      | Insn.Jmp { cond; width = Insn.W64; dst; src; off } -> (
        let tpc = b.Cfg.end_pc + 1 + off and fpc = b.Cfg.end_pc + 1 in
        if tpc = fpc then fact
        else
          match jmp_const regs src with
          | Some c when Reg_state.is_scalar regs.(dst) ->
            let taken =
              if into = tpc then Some true
              else if into = fpc then Some false
              else None
            in
            (match taken with
            | None -> fact
            | Some taken ->
              let regs = Array.copy regs in
              regs.(dst) <-
                Verifier.refine_against_const cond regs.(dst) c ~taken;
              L.Regs regs)
          | _ -> fact)
      | _ -> fact))

type result = {
  findings : Finding.t list;
  elide : int array;   (* per-pc resolved jump target, -1 = keep the guard *)
  elided : int;
}

(* The register-state fixpoint both this pass and the bound pass read. *)
let solve (insns : Insn.insn array) (cfg : Cfg.t) : Solver.result =
  Solver.solve cfg ~transfer:(transfer insns) ~edge_refine:(edge_refine insns cfg)

let run ~(solved : Solver.result) (insns : Insn.insn array) (cfg : Cfg.t) :
    result =
  let live = Cfg.reachable cfg in
  let n = Array.length insns in
  let elide = Array.make n (-1) in
  let findings = ref [] in
  let elided = ref 0 in
  List.iter
    (fun (b : Cfg.block) ->
      if Hashtbl.mem live b.Cfg.start_pc && solved.Solver.converged then
        match Solver.in_fact solved b.Cfg.start_pc with
        | L.Bot -> ()
        | L.Regs regs0 ->
          let regs = Array.copy regs0 in
          for pc = b.Cfg.start_pc to b.Cfg.end_pc do
            (match insns.(pc) with
            | Insn.Jmp { cond; width = Insn.W64; dst; src; off } -> (
              match jmp_const regs src with
              | Some c when Reg_state.is_scalar regs.(dst) -> (
                match Verifier.branch_taken cond regs.(dst) c with
                | Some taken ->
                  let target = if taken then pc + 1 + off else pc + 1 in
                  if target >= 0 && target <= n then begin
                    elide.(pc) <- target;
                    incr elided;
                    findings :=
                      Finding.make ~pass:pass_name ~pc ~severity:Finding.Info
                        (Printf.sprintf
                           "guard always %s: %s proves it; dynamic check \
                            elided"
                           (if taken then "taken" else "fall-through")
                           (Format.asprintf "%a" Reg_state.pp regs.(dst)))
                      :: !findings
                  end
                | None -> ())
              | _ -> ())
            | _ -> ());
            transfer_insn regs pc insns.(pc)
          done)
    (Cfg.blocks_sorted cfg);
  { findings = Finding.sort !findings; elide; elided = !elided }
