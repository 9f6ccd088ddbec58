(* The pass driver: which passes run, what they produced, and the
   configuration signature the verdict cache folds into its fingerprint so
   toggling a pass (or changing a helper's safety flags) invalidates cached
   results. *)

module Cfg = Ebpf.Cfg
module Insn = Ebpf.Insn

type unbounded_policy = Warn | Deny

type config = {
  resource : bool;  (* acquire/release pairing *)
  lock : bool;      (* spinlock discipline *)
  elide : bool;     (* redundant-guard elision *)
  bound : bool;     (* static cost / termination analysis *)
  max_cost : int option;
      (* admission budget: reject programs whose worst-case instruction
         bound exceeds this (None = no budget) *)
  on_unbounded : unbounded_policy;
      (* what admission does with an Unbounded verdict: Warn keeps the
         runtime guards as the only line of defence (the paper's
         position), Deny rejects at load *)
}

let default_config =
  { resource = true; lock = true; elide = true; bound = true;
    max_cost = None; on_unbounded = Warn }

let all_off =
  { resource = false; lock = false; elide = false; bound = false;
    max_cost = None; on_unbounded = Warn }

type report = {
  findings : Finding.t list;  (* all passes, worst first *)
  elide : int array;  (* per-pc resolved jump target, -1 = keep the guard *)
  elided : int;       (* how many guards the elide pass resolved *)
  cost : Bound_pass.result option;  (* Some iff the bound pass ran *)
  passes_run : string list;
}

let errors r =
  List.filter (fun f -> f.Finding.severity = Finding.Error) r.findings

(* The analysis-relevant configuration, serialized for cache fingerprints:
   enabled passes plus every helper's effect/safety flags (the facts the
   passes read from the registry — flip one and cached findings are
   stale). *)
let config_signature (c : config) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "passes:%b,%b,%b,%b\n" c.resource c.lock c.elide c.bound);
  Buffer.add_string buf
    (Printf.sprintf "budget:%s,%s\n"
       (match c.max_cost with None -> "-" | Some m -> string_of_int m)
       (match c.on_unbounded with Warn -> "warn" | Deny -> "deny"));
  List.iter
    (fun (d : Helpers.Registry.def) ->
      let p = d.Helpers.Registry.proto in
      Buffer.add_string buf
        (Printf.sprintf "helper:%d:%b:%b:%b:%b:%b:%s\n" d.Helpers.Registry.id
           (Helpers.Proto.may_sleep p) (Helpers.Proto.unbounded p)
           (Helpers.Proto.acquires p) (Helpers.Proto.locks p)
           (Helpers.Proto.unlocks p)
           (match Helpers.Proto.releases p with
           | None -> "-"
           | Some i -> string_of_int i)))
    Helpers.Registry.defs;
  Buffer.contents buf

(* [config_signature]'s SHA-256 hex, memoized on the last config value
   seen.  The signature reads nothing but the (immutable) config and the
   static helper table, so one digest per config value is exact, and only
   the 64-character hex stays in memory.  The cell holds an immutable
   pair, so loads on several domains at once at worst recompute it. *)
let last_digest : (config * string) option Atomic.t = Atomic.make None

let config_digest (c : config) =
  match Atomic.get last_digest with
  | Some (c', d) when c' = c -> d
  | _ ->
    let d = Hash.Sha256.hex_digest (config_signature c) in
    Atomic.set last_digest (Some (c, d));
    d

(* ---- telemetry ---- *)

let tele_runs = Telemetry.Registry.counter "analysis.runs"
let tele_passes = Telemetry.Registry.counter "analysis.passes"
let tele_findings = Telemetry.Registry.counter "analysis.findings"
let tele_errors = Telemetry.Registry.counter "analysis.errors"
let tele_elisions = Telemetry.Registry.counter "analysis.elisions"
let tele_bounded = Telemetry.Registry.counter "analysis.bound.bounded"
let tele_unbounded = Telemetry.Registry.counter "analysis.bound.unbounded"
let tele_loops = Telemetry.Registry.counter "analysis.bound.loops"

let analyze ?(config = default_config) (insns : Insn.insn array) : report =
  Telemetry.Registry.bump tele_runs;
  let cfg = Cfg.build insns in
  let passes = ref [] in
  let run_pass name f =
    passes := name :: !passes;
    Telemetry.Registry.bump tele_passes;
    f ()
  in
  let resource_findings =
    if config.resource then run_pass Resource_pass.pass_name (fun () ->
        Resource_pass.run insns cfg)
    else []
  in
  let lock_findings =
    if config.lock then run_pass Lock_pass.pass_name (fun () ->
        Lock_pass.run insns cfg)
    else []
  in
  (* one register-state fixpoint, shared by the elide and bound passes *)
  let solved = lazy (Elide_pass.solve insns cfg) in
  let elide_findings, elide, elided =
    if config.elide then
      run_pass Elide_pass.pass_name (fun () ->
          let r = Elide_pass.run ~solved:(Lazy.force solved) insns cfg in
          (r.Elide_pass.findings, r.Elide_pass.elide, r.Elide_pass.elided))
    else ([], Array.make (Array.length insns) (-1), 0)
  in
  let bound_findings, cost =
    if config.bound then
      run_pass Bound_pass.pass_name (fun () ->
          let r = Bound_pass.run ~solved:(Lazy.force solved) insns cfg in
          (match r.Bound_pass.bound with
          | Bound_pass.Bounded _ -> Telemetry.Registry.bump tele_bounded
          | Bound_pass.Unbounded -> Telemetry.Registry.bump tele_unbounded);
          Telemetry.Registry.incr tele_loops
            ~n:(List.length r.Bound_pass.loops);
          (r.Bound_pass.findings, Some r))
    else ([], None)
  in
  let findings =
    Finding.sort
      (resource_findings @ lock_findings @ elide_findings @ bound_findings)
  in
  Telemetry.Registry.incr tele_findings ~n:(List.length findings);
  Telemetry.Registry.incr tele_errors
    ~n:(List.length (List.filter (fun f -> f.Finding.severity = Finding.Error) findings));
  Telemetry.Registry.incr tele_elisions ~n:elided;
  { findings; elide; elided; cost; passes_run = List.rev !passes }

let pp_report ppf r =
  Format.fprintf ppf "%d finding(s), %d guard(s) elided%s, passes: %s"
    (List.length r.findings) r.elided
    (match r.cost with
    | Some c ->
      Format.asprintf ", bound %a" Bound_pass.pp_bound c.Bound_pass.bound
    | None -> "")
    (String.concat "," r.passes_run)
