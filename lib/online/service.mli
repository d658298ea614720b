(** The event-driven online co-scheduling service (the tent of the
    subsystem).

    The core is a {e stepwise} live instance ({!live}): external events —
    {!submit}, {!cancel}, {!advance} — are pushed one at a time, in
    nondecreasing model time; predicted job completions are driven
    through an internal {!Simulator.Engine}.  At each event the live
    state's clock moves ({!State.advance}; progress is evaluated from
    the last install, see {!State}), then the {!Policy} decides whether
    to re-solve.  A re-solve treats the residual work as
    a static instance of the paper's problem and runs the
    DominantMinRatio pipeline through the warm-started
    {!Incremental.solve_state}, the service's one re-solve path.  (The
    online tests check every such re-solve against the cold pipeline
    of the test suite's oracle library on the same residual
    instance.)

    {!run} replays a whole {!Workload_stream} through the same live core
    and the [Serve] daemon feeds it from sockets, so an offline replay
    and a served stream of the same events produce identical schedules
    (the daemon-vs-offline equivalence property of the serve test
    suite).

    Completion handling exploits the structure of equalised schedules:
    all applications sharing a solve finish together, so a single
    next-completion event per allocation epoch sweeps the whole cohort
    (jobs within a 1e-9 remaining-work fraction).  The instant is the
    state's {!State.next_finish}, recorded when allocations are
    installed; the engine holds at most that one event, rescheduled
    only when the instant moves.  An event that neither re-solves nor
    completes a job is therefore O(1) in the live-set size.

    Whatever the policy decides, a re-solve is forced when jobs are
    queued and nothing is running — deferral policies trade response
    time for migrations, but never starve.

    With {!Obs.Probe.on}, every arrival/departure/completion opens a
    [service.*] tracing span and records per-event wall time plus
    queue-depth and live-job gauges; probes off, the handlers pay one
    flag test and the served schedule is bit-identical. *)

type config = {
  policy : Policy.t;
  mode : Incremental.mode;
      (** Always [Warm], the only mode. *)
  validate : bool;
      (** Check processor/cache conservation after every event and
          re-solve (raises [Failure] on violation). *)
}

val default_config : config
(** [Every_event], [Warm], no validation. *)

type notice =
  | Resolved of { time : float; epoch : int; k : float }
      (** A re-solve committed new allocations; [epoch] is the re-solve
          count (see {!live_epoch}), [k] the equalised makespan. *)
  | Completed of { time : float; id : int }
      (** Job [id] finished at [time]. *)
(** What a {!live_create} listener observes — the daemon turns these
    into [subscribe] push frames. *)

type live
(** A stepwise service instance: live job state, the completion-event
    engine, the warm {!Incremental} re-solver and the run counters. *)

val live_create :
  ?config:config -> ?listener:(notice -> unit) -> platform:Model.Platform.t ->
  unit -> live
(** Fresh instance at model time 0.  The optional [listener] is invoked
    synchronously on every re-solve and completion; on a [Resolved]
    notice {!live_state} already holds the new allocations (the online
    tests' per-re-solve cold oracle reads them there).  Every re-solve
    runs {!Incremental.solve_state} in the calling domain.
    @raise Invalid_argument on an invalid [config.policy]. *)

val live_now : live -> float
(** Current model time (the internal engine clock). *)

val live_epoch : live -> int
(** Allocation epoch: the number of re-solves committed so far.  Every
    daemon response is tagged with this value so clients can detect
    stale allocation views. *)

val live_state : live -> State.t
(** The underlying live job state (read it, don't mutate it — the
    service owns all transitions). *)

val live_counters : live -> Incremental.counters
(** The re-solver's live work counters, including those a checkpoint
    does not carry ([select_ops] starts at 0 after {!live_restore}). *)

val last_makespan : live -> float option
(** Equalised makespan [k] of the most recent re-solve; [None] before
    the first. *)

val pending_events : live -> int
(** Events queued in the internal engine: 1 while a completion is
    predicted, else 0.  Read-only, for observability. *)

val find_job : live -> int -> State.job option
(** Look up a live job by its dense id; [None] once it has retired (the
    instance keeps no retired job — keep the handle {!submit} returns, or
    watch [Completed] notices, to follow one past retirement). *)

val submit : live -> at:float -> Model.App.t -> State.job
(** Admit an arrival at model time [at] (clamped to [live_now] if it is
    in the past).  Pending completion predictions due before [at] fire
    first; then the policy decides whether to re-solve. *)

val cancel : live -> at:float -> id:int -> bool
(** Cancel job [id] at model time [at].  Completions due before [at]
    fire first, so a job that finishes before its departure arrives is
    not cancelled — exactly the time-ordered replay semantics.  Returns
    [false] when no live job has that id (unknown or already retired);
    the clock then still advances to [at], firing those completions, and
    nothing else changes. *)

val advance : live -> to_:float -> unit
(** Move model time forward to [to_] (clamped to [live_now]), firing due
    completion predictions; progress under the installed allocations
    follows from the clock.  No policy event is generated by the advance
    itself. *)

val drain_step : live -> bool
(** Run the engine dry, then — if jobs remain — force one re-solve and
    re-predict completions.  Returns whether live jobs remain; callers
    loop until [false] (cooperative deadline checks go between steps,
    which is how the daemon bounds its drain). *)

val drain : live -> unit
(** {!drain_step} until every admitted job has completed or been
    cancelled. *)

val live_report : live -> Metrics.t
(** Metrics so far.  Valid mid-run: [makespan] is the current model time
    and response/stretch statistics cover the jobs completed so far.
    Each retirement folds its count, response and stretch into running
    sums as it happens, in retirement order, so the report costs no walk
    over retired jobs (only {!State.busy_integral}'s over live ones).
    After a {!live_restore} the sums continue from the checkpointed
    ones (exact left-fold prefixes), so the metrics cover the whole
    logical run and equal the uncrashed run's bit for bit. *)

(** {2 Checkpoint / restore}

    {!live_persist} freezes a live instance into a plain {!persist}
    value — every live job with its progress and allocation, the
    engine clock, the pending completion-prediction instant, the policy
    and re-solver counters, and the running retired-job sums (no retired
    job is kept, so a checkpoint's size and cost depend on the live set
    alone).
    Progress is stored as the state holds it: each remaining fraction
    and the busy integral at the anchor [p_last_solve] (the last
    install), not at [p_time].  {!live_restore} rebuilds a live instance
    from it that evolves {e bit-identically} to the original under any
    subsequent event sequence, even when model time moved past the last
    install before the checkpoint: the snapshot file stores every
    float's IEEE-754 bits, allocations are reinstalled verbatim without
    re-solving, and each predicted finish [anchor + rem * Exe] is
    recomputed from the same bits, so the completion prediction is
    re-armed at exactly [p_pending].  The warm {e seed} (the
    previous makespan and demand scale) is carried, so the first
    post-restore re-solve predicts from exactly the values the uncrashed
    run would have used; the carried sort permutation is not (it only
    buys adaptivity — only [partition_ops] can differ from the uncrashed
    run).
    [Serve.Snapshot] serializes this value to the checksummed snapshot
    file behind journal compaction. *)

type pjob = {
  pj_id : int;
  pj_app : Model.App.t;
  pj_arrival : float;
  pj_remaining : float;  (** At the anchor [p_last_solve]. *)
  pj_procs : float;
  pj_cache : float;
  pj_allocated : bool;
  pj_epoch : int;
  pj_migrations : int;
}
(** One live job as checkpointed ([alone_time] is recomputed on restore —
    it is a pure function of the app and platform). *)

type persist = {
  p_time : float;             (** Engine/model clock. *)
  p_next_id : int;            (** Jobs ever admitted. *)
  p_busy : float;             (** Busy-processor integral at the anchor
                                  ({!State.settled_busy}). *)
  p_pending : float option;   (** Absolute time of the scheduled
                                  completion prediction, if any (the
                                  restore recomputes the same instant). *)
  p_last_solve : float;       (** The anchor: the last install instant,
                                  which [pj_remaining] and [p_busy]
                                  refer to. *)
  p_last_k : float option;
  p_prev_d : float;           (** Residual demand scale at the last
                                  solve — with [p_last_k], the warm
                                  seed of the first post-restore
                                  re-solve (0 when none ran). *)
  p_events_handled : int;
  p_events_since : int;
  p_forced : int;
  p_migrations : int;
  p_resolves : int;           (** The allocation epoch. *)
  p_solver_iters : int;
  p_partition_ops : int;
  p_warm_hits : int;
  p_cold_fallbacks : int;
  p_completed : int;          (** Retired-job sufficient statistics: *)
  p_cancelled : int;          (** counts, response/stretch left-fold *)
  p_resp_sum : float;         (** sums and maxima ([neg_infinity] when
                                  nothing completed yet). *)
  p_resp_max : float;
  p_str_sum : float;
  p_str_max : float;
  p_jobs : pjob list;         (** Live jobs, id order. *)
}

val live_persist : live -> persist
(** Freeze the instance's full logical state.  Cheap — O(live jobs),
    however many jobs have retired — and read-only; the instance keeps
    running. *)

val live_restore :
  ?config:config -> ?listener:(notice -> unit) -> platform:Model.Platform.t ->
  persist -> live
(** Rebuild a live instance from a checkpoint (see above for the
    bit-identical-evolution guarantee).  [config] and [listener] are
    supplied fresh — they are process-level concerns, not model
    state.
    @raise Invalid_argument on an invalid [config.policy] or a malformed
    checkpoint (out-of-order job ids, negative clock, an anchor
    [p_last_solve] outside [[0, p_time]]). *)

val run :
  ?config:config -> platform:Model.Platform.t -> Workload_stream.t -> Metrics.t
(** Replay the stream to completion through a fresh live instance (every
    admitted job either completes or is cancelled).  Deterministic: a
    pure function of the platform, stream and config. *)
