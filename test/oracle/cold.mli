(** The cold online re-solve: the paper's pipeline from scratch.

    The reference that {!Online.Incremental.solve_state}'s warm
    re-solves are checked and measured against (the per-re-solve test
    oracle and [bench/main.exe online]): Algorithm 1 with the MinRatio
    criterion, capped water-filling, then the paper's cold bisection.
    It keeps no warm state, and counts its work in the same
    {!Online.Incremental.counters} as the warm path. *)

val partition :
  ?counters:Online.Incremental.counters -> platform:Model.Platform.t ->
  Model.App.t array -> Theory.Dominant.subset
(** [Partition_builder.build Dominant MinRatio] itself, with the
    builder's [?ops] hook wired into [partition_ops] — the accounting is
    the real eviction loop's, not a replica's.  (MinRatio consumes no
    randomness, so the required rng is a shared dummy.) *)

val solve :
  Online.Incremental.counters -> platform:Model.Platform.t ->
  apps:Model.App.t array -> Model.Schedule.t * float
(** One full re-solve of the residual instance — {!partition}, capped
    water-filling, then {!Sched.Equalize.schedule_k} — returning the
    schedule and its equalised makespan.  Counts one resolve, the
    partition operations and the root-finder's objective evaluations
    into the counters.
    @raise Invalid_argument on an empty instance. *)
