(** The list-based Algorithms 1 and 2 as they were before
    {!Sched.Partition_builder} cached its per-application columns.

    Every step recomputes {!Theory.Dominant.ratio} for each candidate and
    tests dominance with {!Theory.Dominant.is_dominant}, so the cost is
    O(n) [**] per step and O(n^2) per build.  The test suite checks the
    shipped builder against it: same subsets, same [?ops] calls and the
    same randomness consumed. *)

val pick :
  Sched.Choice.t -> rng:Util.Rng.t -> platform:Model.Platform.t ->
  apps:Model.App.t array -> int list -> int
(** [pick c ~rng ~platform ~apps candidates] selects an application index
    from the non-empty [candidates] list: uniformly ({!Util.Rng.pick}) for
    [Random], the smallest dominance ratio for [MinRatio], the largest for
    [MaxRatio]; ties go to the candidate listed first.
    @raise Invalid_argument on an empty candidate list. *)

val build :
  ?ops:(int -> unit) ->
  Sched.Partition_builder.strategy -> Sched.Choice.t -> rng:Util.Rng.t ->
  platform:Model.Platform.t -> apps:Model.App.t array ->
  Theory.Dominant.subset
(** Algorithm 1 ([Dominant]) or Algorithm 2 ([DominantRev]) with the
    contract of {!Sched.Partition_builder.build}, [ops] included. *)
