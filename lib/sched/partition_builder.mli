(** Algorithms 1 and 2: greedy construction of dominant partitions.

    [Dominant] (Algorithm 1) starts from [IC = I] and evicts applications
    chosen by the choice function until the partition is dominant.
    [DominantRev] (Algorithm 2) starts from the empty set and accretes
    applications chosen by the choice function for as long as the
    partition stays dominant, returning the last dominant prefix. *)

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
