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

      The sort itself is warm too: ratios, weights, the sorted
      permutation and the suffix weight sums persist in {!t} as unboxed
      parallel arrays, updated in place per event.  Consecutive events
      leave the permutation nearly sorted (progress drifts ratios
      smoothly; an arrival or departure perturbs one position), so an
      adaptive insertion sort runs in [O(n + inversions)] with zero
      allocation, where the previous implementation rebuilt and
      [Array.sort]ed a boxed entry array on every event.

    - {b Makespan.}  The previous [K], scaled by the change in residual
      parallel demand since the last solve, seeds a tight bracket that
      {!Sched.Equalize.solve_cols} refines by Illinois false position, in
      place of the cold bracket spanning the whole feasible range.

    {!solve_state} is the service's one re-solve path; {!solve} keeps
    the paper's cold pipeline only as the reference it is tested and
    measured against.

    All work is counted: [partition_ops] increments per weight/ratio/
    dominance evaluation, [solver_iters] per makespan-objective
    evaluation, so warm-vs-cold savings are measured, not asserted.
    With {!Obs.Probe.on}, every {!solve_state} also opens an
    [online.resolve] tracing span and feeds the [incremental.*] metrics
    (resolves, warm hits vs cold fallbacks, partition ops, solver
    iterations); the baseline {!solve} only counts. *)

type counters = {
  mutable solver_iters : int;
      (** Evaluations of the processor-demand objective inside the
          makespan root-finder. *)
  mutable partition_ops : int;
      (** Per-application weight/ratio evaluations and dominance checks
          inside partition construction. *)
  mutable resolves : int;  (** Calls to {!solve} and {!solve_state}. *)
  mutable warm_hits : int;
      (** {!solve_state} calls whose root-finder was seeded by a
          predicted makespan. *)
  mutable cold_fallbacks : int;
      (** {!solve_state} calls that fell back to the cold bracket (no
          previous makespan, or the prediction was unusable). *)
}

val fresh_counters : unit -> counters
(** All-zero counters. *)

type t
(** Warm state: the previous makespan and suffix-boundary position, the
    persistent partition arrays (ratios, weights, sorted permutation,
    suffix sums), a solver {!Sched.Workspace.t}, and the {!counters}. *)

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
    scale).  The carried permutation is {e not} restored — it only buys
    sort adaptivity; the partition result is exact either way. *)

val cold_partition :
  ?counters:counters -> platform:Model.Platform.t ->
  Model.App.t array -> Theory.Dominant.subset
(** The cold baseline: [Partition_builder.build Dominant MinRatio]
    itself, with the builder's [?ops] hook wired into [partition_ops] —
    the accounting is the real eviction loop's, not a replica's.
    (MinRatio consumes no randomness, so the required rng is a shared
    dummy.) *)

type mode = Warm
(** The service's re-solve mode: [Warm] ({!solve_state}) is the only
    one. *)

val solve :
  t -> platform:Model.Platform.t -> apps:Model.App.t array ->
  Model.Schedule.t * float
(** The counted cold baseline that {!solve_state} is checked and
    measured against (the per-re-solve test oracle and
    [bench/main.exe online]; the service never calls it): one full
    re-solve of the residual instance from scratch — {!cold_partition},
    capped water-filling, then the paper's cold bisection — returning
    the schedule and its equalised makespan, as
    {!Sched.Equalize.schedule_k} does.  Neither reads nor writes the
    warm state, but counts its work in the same {!counters} as
    {!solve_state}.
    @raise Invalid_argument on an empty instance. *)

val solve_state :
  t -> ?pool:Exec.Pool.t -> ?shard_min:int -> elapsed:float ->
  state:State.t -> unit -> float * int
(** The warm re-solve on {!State}'s columns directly — the service's hot
    path.  Reads the live set through {!State.view} (no per-job
    [Model.App.t] materialization), computes the partition by the
    sorted-suffix repair described above (the same subset as
    {!cold_partition}) and the capped water-filling of
    {!Theory.Dominant.cache_allocation_capped}, roots the makespan with
    {!Sched.Equalize.solve_cols} (Illinois refinement) seeded by the
    {e predicted} residual makespan [prev_k * D / prev_D] (where [D] is
    the residual parallel demand [sum (1-s_i) c_i]), and installs the
    allocations through {!State.apply_view}.  Returns [(k, migrations)].

    The three per-position passes (weight/ratio, work costs, processor
    shares) shard across [pool] when it is given, has workers, and
    [n >= shard_min] (default 4096); every shard writes disjoint
    positions and all reductions stay sequential, so the result is
    bit-identical to the sequential path for any pool size and chunking
    (QCheck-enforced under churn).  Counts work in the same {!counters}
    as {!solve} and updates the warm state ([elapsed] ages the seed on
    the fallback path when no demand scale is carried yet).
    @raise Invalid_argument on an empty live set. *)
