(** The live application set of the online service, in columnar layout.

    Each job tracks the fraction of its work still remaining under the
    current [(p_i, x_i)] allocation; progress between events is exact
    under the paper's model: with allocation [(p, x)] held constant, the
    whole application takes [Exe(p, x)] ({!Model.Exec_model.exe}), so an
    interval of length [dt] completes [dt / Exe(p, x)] of the work.
    Integrating progress at every event keeps the state consistent no
    matter when the policy chooses to re-solve.

    Jobs with [procs = 0] are {e queued}: admitted but not yet granted an
    allocation (they make no progress).  The re-solvers see each live job
    as an application with its work scaled by the remaining fraction
    ({!remaining_app}), which is exactly the paper's static problem on
    the residual workload.

    {2 Layout}

    Hot per-job state (remaining fraction, allocation, cached execution
    rates, the solver's per-app constants) lives in flat float-array
    {e columns} indexed by a slot drawn from a freelist; a {!job} value
    is a handle carrying the immutable identity and its slot.  The event
    loop and the incremental solver walk the columns linearly — one
    arrival touches cache-dense arrays instead of chasing records —
    which is what lets the service hold 10⁵ live jobs (perfbench's
    [live-1e5] workload runs it at that size).  Retiring a job returns
    its slot to the freelist for the next admission; the admission-ordered
    iteration array keeps a hole until {!compact} squeezes it out
    (called lazily, and before every solver {!view}). *)

type job
(** A handle on an admitted job: immutable identity plus a slot into the
    live columns.  Handles stay valid after retirement — the accessors
    below then report the job's final values. *)

type t

val create : Model.Platform.t -> t
(** Empty state at time 0. *)

val platform : t -> Model.Platform.t
(** The platform the state was created with. *)

val now : t -> float
(** Time the state was last advanced to. *)

val next_id : t -> int
(** The id the next {!add} will assign (the number of jobs ever
    admitted, counting checkpointed ids after a {!restore}). *)

(** {2 Per-job accessors} *)

val id : job -> int
(** Arrival index, dense from 0. *)

val app : job -> Model.App.t
(** The original application. *)

val arrival : job -> float
(** Admission time. *)

val alone_time : job -> float
(** [Exe(p_total, 1)]: runtime alone on the whole platform (stretch
    denominator). *)

val remaining : job -> float
(** Fraction of [w] left, in [0, 1] (0 after completion; frozen at its
    last value after cancellation). *)

val procs : job -> float
(** Processor share; 0 while queued and after retirement. *)

val cache : job -> float
(** Cache fraction; 0 while queued and after retirement. *)

val allocated : job -> bool
(** Ever granted processors. *)

val epoch : job -> int
(** Bumped on every allocation change. *)

val migrations : job -> int
(** Allocation changes after the first. *)

val finish : job -> float option
(** Completion time, once finished. *)

val cancelled : job -> bool
(** Whether the job was retired by cancellation. *)

(** {2 Lifecycle} *)

val advance : t -> to_:float -> unit
(** Integrate progress of every running job up to [to_] under the current
    allocations, and accumulate the busy-processor integral (for
    utilization).  Remaining fractions are clamped at 0.
    @raise Invalid_argument when [to_] precedes {!now}. *)

val add : t -> app:Model.App.t -> job
(** Admit an arrival (queued, no allocation) at the current time. *)

val restore : t -> clock:float -> next_id:int -> busy:float -> unit
(** Reset the scalar fields of a {e fresh} state to checkpointed values —
    the first step of rebuilding a live core from a snapshot
    ({!Serve.Snapshot}).  @raise Invalid_argument if the state already
    holds jobs, or on a negative/NaN clock or negative [next_id]. *)

val inject : t ->
  id:int ->
  app:Model.App.t ->
  arrival:float ->
  remaining:float ->
  procs:float ->
  cache:float ->
  allocated:bool ->
  epoch:int ->
  migrations:int ->
  job
(** Re-admit a checkpointed live job with explicit progress and
    allocation, in increasing [id] order.  [alone_time] and the cached
    execution-rate columns are recomputed from [app] (pure functions of
    the app, platform and allocation, so the restored values are
    bit-identical to the originals).  Does not advance the clock or bump
    epochs.  @raise Invalid_argument on a duplicate or out-of-order
    id. *)

val complete : t -> job -> unit
(** Mark a job finished at the current time and retire it from the live
    set.  @raise Invalid_argument if the job is not live. *)

val cancel : t -> job -> unit
(** Retire a live job without completion (an explicit departure). *)

(** {2 Live-set queries} *)

val live : t -> job array
(** Live jobs (queued or running) in arrival order.  The array is fresh;
    the handles are the live jobs. *)

val live_count : t -> int
(** Number of live jobs, without materializing them. *)

val iter_live : t -> (job -> unit) -> unit
(** Visit every live job in arrival order without allocating.  The
    callback may retire the job it is visiting (the completion sweep
    does), but must not admit jobs. *)

val finished : t -> job list
(** Retired jobs (completed and cancelled), in retirement order. *)

val running : t -> int
(** Live jobs currently holding processors. *)

val queued : t -> int
(** Live jobs admitted but not yet allocated ([procs = 0]). *)

val remaining_app : job -> Model.App.t
(** The residual application: [app] with work scaled by the remaining
    fraction.  @raise Invalid_argument on a finished job. *)

val remaining_time : platform:Model.Platform.t -> job -> float
(** Time to completion under the job's current allocation; [infinity]
    while queued (and after retirement).  Reads the cached
    execution-rate column — bit-identical to recomputing
    {!Model.Exec_model.exe} on the current allocation. *)

val min_remaining_time : t -> float
(** Minimum {!remaining_time} over the live set ([infinity] when nothing
    runs), in one column scan. *)

val demand_summary : t -> float * float * float
(** [(used, queued_work, total_work)] over the live set in one column
    scan: the processor shares in use, and the residual work
    [remaining * work_cost] of queued jobs and of all jobs — the inputs
    of the policy's degradation estimate. *)

val apply : t -> job array -> Model.Schedule.alloc array -> int
(** [apply t jobs allocs] installs a fresh solver allocation on [jobs]
    (same order), bumps every epoch, refreshes the cached execution
    rates, and returns the number of {e migrations}: already-allocated
    jobs whose processor share or cache fraction changed by more than a
    1e-9 relative tolerance.  @raise Invalid_argument on length
    mismatch. *)

(** {2 Solver view}

    The incremental solver reads the live set directly from the columns
    instead of materializing one {!Model.App.t} per job per re-solve. *)

type view = {
  v_n : int;  (** Live jobs; positions [0 .. v_n-1] are arrival order. *)
  v_slot : int array;  (** Position to column slot (first [v_n] valid). *)
  v_remaining : float array;  (** Remaining-fraction column. *)
  v_w : float array;  (** App work column. *)
  v_s : float array;  (** App sequential-fraction column. *)
  v_f : float array;  (** App access-frequency column. *)
  v_m0 : float array;  (** App base miss-rate column. *)
  v_c0 : float array;  (** App reference-cache column. *)
  v_fp : float array;  (** App footprint column. *)
  v_d : float array;  (** {!Model.Power_law.d_of} per job. *)
  v_dpow : float array;  (** [d ** (1/alpha)] per job (0 when d = 0). *)
  v_capx : float array;  (** Max useful cache fraction per job. *)
}
(** Column view for the solver: slot-indexed arrays shared with the
    state (do not retain across events), plus the position-to-slot map
    of the compacted live set. *)

val view : t -> view
(** Compact the live set and expose the columns.  Positions are arrival
    (= id) order. *)

val apply_view : t ->
  n:int ->
  procs:float array ->
  cache:float array ->
  access:float array ->
  int
(** Columnar {!apply}: install position-indexed allocations from the
    solver's buffers ([access] is the access cost at the new cache
    fraction, already derived during the solve), returning the migration
    count.  Must follow a {!view} with no interleaved admission or
    retirement.  @raise Invalid_argument if the live set changed. *)

val compact : t -> unit
(** Squeeze retirement holes out of the iteration array now (normally
    lazy).  Exposed for the freelist/compaction invariant tests. *)

val mem_stats : t -> int * int * int * int
(** [(slots_ever, free_slots, live, dense_entries)] — the freelist and
    iteration-array occupancy, for tests and capacity probes.
    [slots_ever = free_slots + live] always; [dense_entries - live] is
    the current hole count. *)

val busy_integral : t -> float
(** [integral of (sum of live procs) dt] since creation. *)

val conservation_violation : t -> string option
(** [None] when the live allocations satisfy the CoSchedCache
    constraints: every [procs >= 0], every [cache in [0, 1]],
    [sum procs <= p] and [sum cache <= 1] (relative tolerance 1e-6).
    Otherwise a description of the violated constraint. *)

val assert_conservation : t -> unit
(** @raise Failure with the {!conservation_violation} message, if any. *)
