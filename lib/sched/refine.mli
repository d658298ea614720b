(** Speedup-aware cache refinement — the paper's future-work direction.

    Section 5's heuristics allocate cache {e as if} applications were
    perfectly parallel (Theorem 3's closed form), then fix processors by
    equalising completion times.  The conclusion names the obvious next
    step: "extending the heuristics that account for the speedup profile
    for both processor and cache allocation".  This module implements it.

    For Amdahl applications, the equalised makespan [K(x)] is defined
    implicitly by [sum_i (1 - s_i) / (K / c_i(x_i) - s_i) = p] with
    [c_i(x) = w_i (1 + f_i (ls + ll d_i x^{-alpha}))].  Implicit
    differentiation gives the exact gradient [dK/dx_i], and at an interior
    optimum of the simplex all partial derivatives are equal (KKT).  The
    refinement runs a multiplicative-weights fixed point on that
    condition: [x_i <- x_i * (-dK/dx_i)^gamma], renormalised, with a
    backtracking step size and the Eq. (3) support rule ([x_i] must exceed
    [d_i^{1/alpha}] or drop to 0).  The result never degrades the starting
    point (the best iterate is returned).

    For perfectly parallel applications the fixed point coincides with
    Theorem 3 (tested); for large sequential fractions it strictly
    improves on it (the [speedup] experiment quantifies the gap). *)

type result = {
  x : float array;        (** Refined cache fractions (sum <= 1). *)
  makespan : float;       (** Equalised makespan at [x]. *)
  iterations : int;       (** Fixed-point iterations performed. *)
  improvement : float;    (** [1 - makespan / makespan(x0)], >= 0. *)
}

val refine :
  ?max_iter:int -> ?tol:float -> ?iters:int ref -> ?ws:Workspace.t ->
  platform:Model.Platform.t ->
  apps:Model.App.t array -> x0:float array -> unit -> result
(** Refine a starting allocation (typically Theorem 3's).  [max_iter]
    defaults to 200, [tol] (relative makespan change) to 1e-10.

    The fixed point runs on the overhauled hot path: costs and
    derivatives evaluate through a precomputed memoized
    {!Model.Kernel}, the current iterate's makespan is carried forward
    instead of re-solved at the top of every iteration (one full
    {!Equalize.solve_makespan} saved per iteration versus
    {!refine_reference}), and intermediates live in [ws] when given.
    [iters], as in {!Equalize.solve_makespan}, counts every
    processor-demand evaluation across all inner solves, so refinement
    work is observable like the online solvers'.

    With {!Obs.Probe.on}, each call opens a [sched.refine] tracing span
    and records the [refine.*] metrics (fixed-point iterations, relative
    improvement, per-step gain); {!refine_reference} stays deliberately
    uninstrumented, as it is the measured baseline.
    @raise Invalid_argument on an empty instance or length mismatch. *)

val refine_reference :
  ?max_iter:int -> ?tol:float -> platform:Model.Platform.t ->
  apps:Model.App.t array -> x0:float array -> unit -> result
(** The pre-overhaul implementation, kept verbatim as the measured naive
    baseline (the solver section of [bench/main] reports {!refine}'s
    throughput against it in the same run) and as the test suite's
    oracle for {!refine}.  Same fixed point up to floating-point
    rounding: the kernel factorisation used by {!refine} differs by ulps
    per cost, so the two trajectories agree to the fixed point's
    tolerance, not bit-for-bit. *)

val schedule :
  ?max_iter:int -> ?tol:float -> platform:Model.Platform.t ->
  apps:Model.App.t array -> x0:float array -> unit -> Model.Schedule.t
(** The refined allocation equalised into a full schedule. *)

val cost_derivative :
  platform:Model.Platform.t -> Model.App.t -> float -> float
(** [dc_i/dx_i] in the unsaturated power-law regime; 0 at or below zero
    cache and when the miss rate is pinned at 1.  The direct evaluation
    {!Model.Kernel.cost_derivative} is property-tested against.  Exposed
    for tests. *)

val gradient :
  platform:Model.Platform.t -> apps:Model.App.t array -> x:float array ->
  k:float -> float array
(** The exact partials [dK/dx_i] (nonpositive; more cache never hurts) at
    the equalised makespan [k]; 0 for applications outside the support or
    saturated at miss rate 1.  Exposed for tests. *)
