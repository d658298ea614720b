(** Dominant partitions (Section 4.2: Definition 4, Theorems 2 and 3).

    For perfectly parallel applications with unbounded footprints, the
    cache-partitioning problem reduces to choosing the subset [IC] of
    applications that receive cache.  Writing
    [weight_i = (w_i f_i d_i)^{1/(alpha+1)}] and
    [ratio_i = weight_i / d_i^{1/alpha}], a partition [IC] is {e dominant}
    when for every [i] in [IC], [weight_i / sum_{j in IC} weight_j >
    d_i^{1/alpha}] — equivalently [ratio_i > sum_{j in IC} weight_j].

    For a dominant [IC], Theorem 3 gives the optimal fractions in closed
    form: [x_i = weight_i / sum_{j in IC} weight_j].  For a non-dominant
    partition, Theorem 2 constructs a strictly better solution by evicting
    a violating application. *)

type subset = bool array
(** [subset.(i)] is true iff application [i] belongs to [IC]. *)

val weight : platform:Model.Platform.t -> Model.App.t -> float
(** [(w f d)^{1/(alpha+1)}]; 0 when [f = 0] or the application never
    misses ([d = 0]). *)

val ratio : platform:Model.Platform.t -> Model.App.t -> float
(** [weight / d^{1/alpha}] — the greedy criterion of the MinRatio /
    MaxRatio choice functions.  [infinity] when [d = 0] but [weight > 0];
    [0] when [weight = 0]. *)

val weight_sum :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> float
(** [sum_{j in IC} weight_j].  @raise Invalid_argument on length mismatch. *)

val violators :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> int list
(** Indices [i] in [IC] with [ratio_i <= sum weights] — the applications
    making the partition non-dominant, in increasing index order. *)

val is_dominant :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> bool
(** Definition 4.  The empty subset is vacuously dominant. *)

val cache_allocation :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> float array
(** Theorem 3's closed form: [x_i = weight_i / sum weights] on [IC], 0
    elsewhere.  Defined for any subset (it is the optimum of the relaxed
    problem CoSchedCache-Ext for arbitrary [IC], Lemma 4); it is the true
    partition optimum when [IC] is dominant.  All-zero when [IC] is empty
    or all weights vanish. *)

val cache_allocation_capped :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> float array
(** Theorem 3 generalised to finite footprints (the Eq. 2 second case,
    which Section 4.2 assumes away): minimise
    [sum_{i in IC} w_i f_i d_i / x_i^alpha] subject to [sum x_i <= 1] and
    [x_i <= min(1, a_i / Cs)] by water-filling — apply the closed form,
    clamp the over-cap applications to their caps, redistribute the freed
    budget among the rest, repeat (at most |IC| rounds, exact by KKT:
    uncapped applications share a common Lagrange multiplier).  Equals
    {!cache_allocation} when no footprint binds; may leave cache unused
    when every application is capped. *)

val partition_makespan :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> float
(** Lemma 3 makespan of the Theorem 3 allocation (perfectly parallel
    evaluation, using the capped Eq. 2 — so it is meaningful, if not
    optimal, even for non-dominant subsets). *)

val improve :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset ->
  subset option
(** One Theorem 2 improvement step: if the partition is non-dominant and
    has at least two cached applications, evict a violating application
    (the resulting allocation is strictly better); [None] when already
    dominant or when no eviction is possible ([|IC| <= 1]). *)

val improve_to_dominant :
  platform:Model.Platform.t -> apps:Model.App.t array -> subset -> subset
(** Iterate {!improve} to a fixed point.  Terminates because each step
    strictly shrinks [IC]. *)

val indices : subset -> int list
(** Members of [IC], increasing. *)

val of_indices : n:int -> int list -> subset
(** Inverse of {!indices}.  @raise Invalid_argument on out-of-range index. *)

val cardinal : subset -> int
