(** Algorithms 1 and 2: greedy construction of dominant partitions.

    [Dominant] (Algorithm 1) starts from [IC = I] and evicts applications
    chosen by the choice function until the partition is dominant.
    [DominantRev] (Algorithm 2) starts from the empty set and accretes
    applications chosen by the choice function for as long as the
    partition stays dominant, returning the last dominant prefix.

    Cost.  Each {!build} computes {!Theory.Dominant.weight} and
    {!Theory.Dominant.ratio} once per application, into two float
    columns: O(n) [**] per call.  Every step of either algorithm then
    reads the columns with no [**]: an O(n) weight sum, an O(n)
    dominance check and an O(n) choice scan, so a build is O(n^2)
    float operations in all.  Algorithm 2 allocates nothing per step
    under [MinRatio]/[MaxRatio]; [Random] builds the candidate list it
    draws from.

    Bit-identity.  Both quantities are deterministic functions of the
    application and the platform, so a cached value equals the value a
    per-step call would return.  The weight sum is the left fold over
    the members in index order, which is {!Theory.Dominant.weight_sum}'s
    association, and a member violates dominance iff [ratio <= total],
    {!Theory.Dominant.violators}' test (a NaN ratio never violates).  The
    choice scans the candidates in index order and replaces the best only
    on a strictly better ratio, so ties go to the lowest index; [Random]
    calls {!Util.Rng.pick} on the index-ordered candidate list.  The
    subsets, the [ops] calls and the draws taken from [rng] are therefore
    those of the list-based algorithms that recompute both quantities at
    every step; the test suite checks this against that reference. *)

type strategy = Dominant | DominantRev

val strategy_name : strategy -> string
(** ["Dominant"] or ["DominantRev"]. *)

val strategy_of_string : string -> strategy
(** Case-insensitive ("dominant", "dominantrev"/"dominant-rev").
    @raise Invalid_argument otherwise. *)

val build :
  ?ops:(int -> unit) ->
  strategy -> Choice.t -> rng:Util.Rng.t -> platform:Model.Platform.t ->
  apps:Model.App.t array -> Theory.Dominant.subset
(** Run the greedy algorithm; the result is always dominant (possibly the
    empty set, e.g. when even singletons violate dominance).  Consumes
    randomness from [rng] only for the [Random] criterion.

    [ops] (meaningful for [Dominant], Algorithm 1) is called with the
    per-application scan counts of every eviction-loop iteration — one
    [m]-wide pass each for the weight sum, the dominance check and the
    eviction choice over the [m] surviving members.  The cold online
    re-solve of the test suite's oracle library counts its work through
    this hook, so the accounting is the real loop's, not a replica's. *)
