(** Static cost & termination analysis (SCEV-lite).

    Infers per-loop trip counts over the verifier's interval domain (the
    elide pass's solver facts, reused), composes them with per-block
    instruction costs into a whole-program worst-case instruction bound,
    and emits the per-pc fuel-check window vector the interpreter and JIT
    use to batch fuel checks for proven-bounded programs.

    Soundness contract: for any program this pass reports
    [Bounded n], no single invocation can retire more than [n]
    instructions (helper-internal work and bpf-to-bpf callees force
    [Unbounded] instead of being estimated).  Over-approximation is
    expected; undercounting is a bug — [test/test_analysis.ml] holds a
    qcheck oracle comparing the static bound against retired-instruction
    counts under random chaos schedules. *)

val pass_name : string

type bound = Bounded of int | Unbounded

type loop_info = {
  head : int;          (** head block start pc *)
  body_blocks : int;   (** blocks in the natural-loop body *)
  reg : int option;    (** induction register, when inferred *)
  trips : int option;  (** sound upper bound on body executions *)
}

type result = {
  bound : bound;
  spans : int array;
      (** [spans.(pc)]: length (>= 1) of the straight-line run starting at
          [pc] that one up-front fuel check covers.  Never extends past a
          call (the callee may drain fuel mid-window) and never crosses a
          block boundary. *)
  loops : loop_info list;  (** ascending head pc *)
  findings : Finding.t list;
}

val pp_bound : Format.formatter -> bound -> unit

val cost_cap : int
(** Saturation point of the cost arithmetic: any total at or above this
    collapses to [Unbounded]. *)

val run :
  solved:Elide_pass.Solver.result -> Ebpf.Insn.insn array -> Ebpf.Cfg.t -> result
(** [solved] is {!Elide_pass.solve} over the same program and CFG: the
    register-state fixpoint the elide pass also reads, solved once. *)
