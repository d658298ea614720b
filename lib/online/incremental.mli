(** Warm-started incremental re-solvers.

    A re-solve has two stages: choose the dominant cache partition
    (Algorithm 1 with the MinRatio criterion — the paper's representative
    heuristic), then equalise completion times by solving for the
    makespan [K].  Both stages admit warm starts across consecutive
    events:

    - {b Partition.}  Algorithm 1 evicts the minimum-ratio application
      until dominance holds; since the per-application ratio does not
      depend on the chosen subset, its result is exactly the maximal
      dominant {e suffix} of the applications sorted by (ratio, index)
      (dominance of a suffix reduces to its first member's ratio
      exceeding the suffix weight sum, and [ratio - suffix sum] is
      monotone along the sorted order).  The warm path computes each
      ratio and the total weight [W] once, then finds that suffix's
      boundary by {e selection}, not by sorting: every evictee has
      [ratio <= W], so one filter pass keeps the [c] candidates with
      [not (ratio > W)], and a median-of-three quickselect over them
      settles the boundary — a kept pivot keeps everything above it, an
      evicted one evicts everything below it.  Expected
      [O(n + c)] per re-solve, with nothing carried between solves
      (so nothing to rebuild after a create or restore), against the
      cold rebuild's [O(n^2)] eviction loop; provably the same subset
      (ties broken by index in both) up to the rounding of the weight
      sums, which differ only in association.  [select_ops] counts the
      candidates the quickselect visits.

    - {b Makespan.}  The previous [K], scaled by the change in residual
      parallel demand since the last solve, seeds a tight bracket that
      {!Sched.Equalize.solve_cols} refines by Illinois false position, in
      place of the cold bracket spanning the whole feasible range.

    {!solve_state} is the service's one re-solve path.  The paper's
    cold pipeline, the reference it is tested and measured against,
    lives in the test suite's oracle library.

    All work is counted: [partition_ops] increments per weight/ratio/
    dominance evaluation, [solver_iters] per makespan-objective
    evaluation, [select_ops] per candidate visited by the boundary
    selection, so warm-vs-cold
    savings are measured, not asserted.
    With {!Obs.Probe.on}, every {!solve_state} also opens an
    [online.resolve] tracing span with five children that tile it —
    [online.resolve.settle] ({!State.view}: compaction and settling
    the live set at the clock), [online.resolve.partition] (weights and
    ratios, the boundary selection, water-filling), [online.resolve.cost] (work costs and the
    demand sum), [online.resolve.root] (the makespan root) and
    [online.resolve.install] (processor shares and
    {!State.apply_view}) — and feeds the [incremental.*] metrics
    (resolves, warm hits vs cold fallbacks, partition ops, solver
    iterations, selection ops). *)

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
  mutable select_ops : int;
      (** Candidates visited by the boundary selection's partition
          passes (expected at most a small multiple of the candidate
          count per {!solve_state}).  Not checkpointed: a restored
          service starts it at 0. *)
}

val fresh_counters : unit -> counters
(** All-zero counters. *)

type t
(** Warm state: the previous makespan and demand scale, the reusable
    partition and columnar-solve scratch (ratios, weights, candidates,
    per-position buffers), and the {!counters}. *)

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
    scale) — the only state a re-solve carries. *)

val evicted_positions : t -> int array
(** The live positions the last {!solve_state} evicted from the cache
    (the first ones of the order by (ratio, position)), in no particular
    order.  Fresh array, for tests. *)

type mode = Warm
(** The service's re-solve mode: [Warm] ({!solve_state}) is the only
    one. *)

val solve_state :
  t -> elapsed:float -> state:State.t -> float * int
(** The warm re-solve on {!State}'s columns directly — the service's hot
    path.  Reads the live set through {!State.view} (no per-job
    [Model.App.t] materialization), computes the partition by the
    boundary selection described above (the same subset as
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
