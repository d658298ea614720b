(** Warm-started incremental re-solvers.

    A re-solve has two stages: choose the dominant cache partition
    (Algorithm 1 with the MinRatio criterion — the paper's representative
    heuristic), then equalise completion times by solving for the
    makespan [K].  Both stages admit warm starts across consecutive
    events:

    - {b Partition.}  Algorithm 1 evicts the minimum-ratio application
      until dominance holds; since the per-application ratio does not
      depend on the chosen subset, its result is exactly the maximal
      dominant {e suffix} of the applications sorted by ratio (dominance
      of a suffix reduces to its first member's ratio exceeding the
      suffix weight sum, and [ratio - suffix sum] is monotone along the
      sorted order).  The warm path therefore computes each ratio once,
      sorts, and walks the suffix boundary from its previous position —
      [O(n log n)] against the cold rebuild's [O(n^2)] eviction loop, and
      provably the same subset (ties broken by index in both).

      The sort itself is warm too.  {!t} carries the previous solve's
      sorted order {e by job}, as (slot, generation) pairs read from
      {!State.view}'s [v_slot] and [v_gen], so a departure anywhere in
      the arrival order and a freelist slot recycled for a new arrival
      leave the other jobs' carried places intact.  Each re-solve maps
      the pairs back to positions (O(n)), keeps the survivors — live
      jobs whose slot generation is unchanged — in carried order,
      restores their progress drift with an adaptive insertion sort,
      sorts the [a] arrivals since the last solve with [Array.sort] and
      merges them in with one O(n) pass.  Per re-solve the sort costs
      [O(n + d + a log a)], where [d] is the number of inversions
      progress drift put among the survivors, plus one full
      [O(n log n)] sort per create or restore (nothing carried yet);
      capacity regrowth keeps the carried order.  Should [d] pass a
      linear shift budget, the survivors are re-sorted with
      [Array.sort] too.  [sort_shifts] and [sort_fallbacks] count
      both.

    - {b Makespan.}  The previous [K], scaled by the change in residual
      parallel demand since the last solve, seeds a tight bracket that
      {!Sched.Equalize.solve_cols} refines by Illinois false position, in
      place of the cold bracket spanning the whole feasible range.

    {!solve_state} is the service's one re-solve path.  The paper's
    cold pipeline, the reference it is tested and measured against,
    lives in the test suite's oracle library.

    All work is counted: [partition_ops] increments per weight/ratio/
    dominance evaluation, [solver_iters] per makespan-objective
    evaluation, [sort_shifts] per insertion shift, so warm-vs-cold
    savings are measured, not asserted.
    With {!Obs.Probe.on}, every {!solve_state} also opens an
    [online.resolve] tracing span with four children that tile it —
    [online.resolve.partition] (weights and ratios, the sort and
    boundary, water-filling), [online.resolve.cost] (work costs and the
    demand sum), [online.resolve.root] (the makespan root) and
    [online.resolve.install] (processor shares and
    {!State.apply_view}) — and feeds the [incremental.*] metrics
    (resolves, warm hits vs cold fallbacks, partition ops, solver
    iterations, sort shifts and sort fallbacks). *)

type counters = {
  mutable solver_iters : int;
      (** Evaluations of the processor-demand objective inside the
          makespan root-finder. *)
  mutable partition_ops : int;
      (** Per-application weight/ratio evaluations and dominance checks
          inside partition construction. *)
  mutable resolves : int;  (** Calls to {!solve_state}. *)
  mutable warm_hits : int;
      (** {!solve_state} calls whose root-finder was seeded by a
          predicted makespan. *)
  mutable cold_fallbacks : int;
      (** {!solve_state} calls that fell back to the cold bracket (no
          previous makespan, or the prediction was unusable). *)
  mutable sort_shifts : int;
      (** Insertion shifts spent restoring the carried order's drift. *)
  mutable sort_fallbacks : int;
      (** {!solve_state} calls that sorted the live set from scratch:
          nothing was carried (the first solve after {!create}), or the
          insertion pass ran out of its linear shift budget.  Like
          [sort_shifts], not checkpointed: a restored service starts
          both at 0. *)
}

val fresh_counters : unit -> counters
(** All-zero counters. *)

type t
(** Warm state: the previous makespan and suffix-boundary position, the
    persistent partition arrays (ratios, weights, the sorted order
    carried by job, suffix sums), the columnar-solve scratch, and the
    {!counters}. *)

val create : unit -> t
(** Cold warm-state with {!fresh_counters}. *)

val counters : t -> counters
(** The live counters (shared, mutated by every solve). *)

val prev_demand : t -> float
(** The residual parallel demand [sum (1-s_i) c_i] recorded by the last
    {!solve_state} (0 when none ran) — checkpointed alongside the last
    makespan so a restored service seeds its first re-solve exactly as
    the uncrashed run would. *)

val reseed : t -> prev_k:float option -> prev_d:float -> unit
(** Install a checkpointed warm seed (previous makespan and demand
    scale).  The carried order is {e not} restored — it only buys sort
    adaptivity; the partition result is exact either way. *)

val sorted_positions : t -> (int * float) array
(** The last {!solve_state}'s live positions in partition order, each
    with its ratio: the sort by (ratio, position) ascending.  Fresh
    array, for tests. *)

type mode = Warm
(** The service's re-solve mode: [Warm] ({!solve_state}) is the only
    one. *)

val solve_state :
  t -> elapsed:float -> state:State.t -> float * int
(** The warm re-solve on {!State}'s columns directly — the service's hot
    path.  Reads the live set through {!State.view} (no per-job
    [Model.App.t] materialization), computes the partition by the
    sorted-suffix repair described above (the same subset as
    Algorithm 1's MinRatio eviction loop) and the capped water-filling of
    {!Theory.Dominant.cache_allocation_capped}, roots the makespan with
    {!Sched.Equalize.solve_cols} (Illinois refinement) seeded by the
    {e predicted} residual makespan [prev_k * D / prev_D] (where [D] is
    the residual parallel demand [sum (1-s_i) c_i]), and installs the
    allocations through {!State.apply_view}.  Returns [(k, migrations)].

    Every pass is one loop over the positions in the calling domain.
    Counts its work in the {!counters} and updates the warm state ([elapsed] ages the seed on
    the fallback path when no demand scale is carried yet).
    @raise Invalid_argument on an empty live set. *)
