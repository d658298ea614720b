(** The pre-overhaul speedup-aware refinement, kept verbatim.

    The measured naive baseline of {!Sched.Refine.refine} (the solver
    section of [bench/main] reports the optimized throughput against it
    in the same run) and the test suite's oracle for it.  Same
    multiplicative-weights fixed point up to floating-point rounding:
    the kernel factorisation used by {!Sched.Refine.refine} differs by
    ulps per cost, so the two trajectories agree to the fixed point's
    tolerance, not bit-for-bit.  Deliberately uninstrumented. *)

val refine :
  ?max_iter:int -> ?tol:float -> platform:Model.Platform.t ->
  apps:Model.App.t array -> x0:float array -> unit -> Sched.Refine.result
(** Refine a starting allocation; [max_iter] defaults to 200, [tol]
    (relative makespan change) to 1e-10, as in {!Sched.Refine.refine}.
    Every iteration re-solves the current point and re-derives every
    power-law constant from scratch.
    @raise Invalid_argument on an empty instance or length mismatch. *)

val cost_derivative :
  platform:Model.Platform.t -> Model.App.t -> float -> float
(** [dc_i/dx_i] in the unsaturated power-law regime; 0 at or below zero
    cache and when the miss rate is pinned at 1.  The direct evaluation
    {!Model.Kernel.cost_derivative} is property-tested against. *)

val gradient :
  platform:Model.Platform.t -> apps:Model.App.t array -> x:float array ->
  k:float -> float array
(** The exact partials [dK/dx_i] (nonpositive; more cache never hurts) at
    the equalised makespan [k]; 0 for applications outside the support or
    saturated at miss rate 1. *)
