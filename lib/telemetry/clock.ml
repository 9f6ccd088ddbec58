(* The one host clock: monotonic wall time in nanoseconds.

   Simulated time lives on Kernel_sim.Vclock; this clock is for what the
   host spends (load-pipeline stages, verification, serving rates).  It is
   wall time, not process CPU time, so a sharded run's rate is events over
   elapsed time rather than over CPU time summed across domains, and one
   reading is a vDSO clock_gettime rather than a getrusage syscall. *)
let host_ns () = Monotonic_clock.now ()
