(** Repetition and aggregation machinery for the Section 6 simulations.

    The paper executes every heuristic 50 times on freshly drawn instances
    and reports the average makespan.  A [sweep] runs that protocol at
    every point of a parameter sweep; instances are derived
    deterministically from a master seed, and all policies see the same
    instances at the same sweep point (paired comparison).

    All trial execution is sharded through the {!Campaign} engine: trials
    run on [config.jobs] worker domains, are checkpointed/resumed through
    [config.journal], and inherit the campaign's fault tolerance — per-trial isolation, the
    [config.on_failure] policy with [config.max_retries] deterministic
    retries, and a cooperative [config.trial_timeout] deadline polled at
    policy boundaries.  Results are bit-identical for every [jobs] value
    because trial RNG substreams are pre-split from the master seed and
    statistics are merged in trial-index order, never completion order.

    Failed trials are explicit holes: they are skipped by the fold (means
    are over surviving trials, [nan] when none survive), counted in the
    campaign stats, and announced in the figure title — never silently
    dropped. *)

type instance = {
  platform : Model.Platform.t;
  apps : Model.App.t array;
}

type config = {
  trials : int;  (** Repetitions per point; the paper uses 50. *)
  seed : int;    (** Master seed; each trial gets a split substream. *)
  jobs : int;    (** Worker domains; 1 = sequential, 0 = one per core. *)
  journal : Campaign.Journal.t option;
      (** Checkpoint journal, opened once by the caller and shared by
          every campaign of the run; a trial already journalled, by this
          run or an interrupted earlier one, is replayed instead of
          recomputed (see {!Campaign.Journal}). *)
  on_failure : [ `Abort | `Skip | `Retry ];
      (** Trial-failure policy (see {!Campaign.run}); [`Abort] is the
          historical fail-fast behaviour. *)
  max_retries : int;  (** Retry budget per trial under [`Retry]. *)
  trial_timeout : float option;
      (** Cooperative per-trial deadline in seconds (see
          {!Campaign.Watchdog}). *)
  fault : Campaign.Fault.t option;
      (** Deterministic fault-injection harness, armed for each campaign
          (testing only). *)
}

val default_config : config
(** 50 trials, seed 2017 (the publication year), 1 job, no journal,
    [`Abort] on failure, retry budget 2, no deadline, no fault
    harness — exactly the historical sequential behaviour. *)

val trial_rngs : config -> Util.Rng.t list
(** The per-trial RNG substreams, pre-split from the master seed in trial
    order (split [i] belongs to trial [i]). *)

val run_trials :
  config:config -> tag:string ->
  work:(Util.Rng.t -> float array) -> unit -> Campaign.outcome
(** Generic campaign entry for ad-hoc experiments: runs [work] once per
    trial on that trial's substream and returns the outcomes in trial
    order.  [tag] must uniquely name the computation (experiment id plus
    fixed parameters); together with the trial RNG state it forms the
    journal key. *)

val mean_makespans :
  config:config -> gen:(Util.Rng.t -> instance) ->
  policies:Sched.Heuristics.t list -> (Sched.Heuristics.t * float) list
(** Average makespan of each policy over the surviving trials of
    [config.trials] generated instances ([nan] if every trial failed). *)

val sweep :
  ?config:config -> id:string -> title:string -> xlabel:string ->
  values:float list -> gen:(float -> Util.Rng.t -> instance) ->
  policies:Sched.Heuristics.t list -> unit -> Report.figure
(** One figure: rows are sweep values, columns are policies, cells are
    mean makespans.  Normalize afterwards with {!Report.normalize_by}.
    When trials failed under [`Skip]/[`Retry], the count is appended to
    the figure title. *)

type repartition_stat = {
  policy : Sched.Heuristics.t;
  avg_procs : float;
  min_procs : float;
  max_procs : float;
  avg_cache : float;
  min_cache : float;
  max_cache : float;
}

val repartition :
  ?config:config -> values:float list ->
  gen:(float -> Util.Rng.t -> instance) ->
  policies:Sched.Heuristics.t list -> unit ->
  (float * repartition_stat list) list
(** Figure 7/17 data: per sweep value and policy, the average / min / max
    processor count and cache fraction over all applications and trials.
    Policies without a concurrent schedule (AllProcCache) are skipped. *)
