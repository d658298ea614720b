(** The live application set of the online service, in columnar layout.

    Each job tracks the fraction of its work still remaining under the
    current [(p_i, x_i)] allocation; progress between events is exact
    under the paper's model: with allocation [(p, x)] held constant, the
    whole application takes [Exe(p, x)] ({!Model.Exec_model.exe}), so an
    interval of length [dt] completes [dt / Exe(p, x)] of the work.

    {2 Epoch-anchored progress}

    Allocations change only when a re-solve installs new ones, so the
    state stores each job's remaining fraction at the {e anchor} — the
    instant of the last {!view}, which every re-solve takes — and
    evaluates {!remaining} on demand as
    [max 0 (rem_anchor - (now - anchor) / Exe(p, x))].  Moving the
    clock ({!advance}), admitting, retiring and counting
    {!running}/{!queued} jobs are O(1); {!view} settles every live job
    at the clock and moves the anchor there.  Each running job's
    absolute predicted finish [anchor + rem_anchor * Exe(p, x)] is fixed
    when its allocation is installed, and {!next_finish} keeps their
    minimum, so the next completion is known without a scan.
    When an epoch holds one clock step (a re-solve at every event), the
    values are bit-identical to integrating every job at every event.

    Jobs with [procs = 0] are {e queued}: admitted but not yet granted an
    allocation (they make no progress).  The re-solvers see each live job
    as an application with its work scaled by the remaining fraction
    ({!remaining_app}), which is exactly the paper's static problem on
    the residual workload.

    {2 Layout}

    Hot per-job state (remaining fraction, allocation, cached execution
    rates, the solver's per-app constants) lives in flat float-array
    {e columns} indexed by a slot drawn from a freelist; a {!job} value
    is a handle carrying the immutable identity and its slot.  The
    solver view, the install pass, the completion sweep and the
    incremental solver walk the columns linearly instead of chasing
    records, which is what lets the service hold 10⁵ live jobs
    (perfbench's [live-1e5] workload runs it at that size).  Retiring a job returns
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

val anchor : t -> float
(** The instant the stored remaining fractions refer to: the last
    {!view} (so the last re-solve), or the {!restore}d anchor. *)

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
(** Fraction of [w] left at {!now}, in [0, 1] (0 after completion;
    frozen at its last value after cancellation).  O(1): evaluated from
    the anchor. *)

val settled_remaining : job -> float
(** Fraction of [w] left at the {!anchor} — what a checkpoint stores
    ([remaining] after retirement). *)

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
(** Move the clock to [to_].  O(1): progress under the current
    allocations is evaluated on demand from the {!anchor}.
    @raise Invalid_argument when [to_] is NaN or precedes {!now}. *)

val add : t -> app:Model.App.t -> job
(** Admit an arrival (queued, no allocation) at the current time. *)

val restore :
  t -> clock:float -> anchor:float -> next_id:int -> busy:float -> unit
(** Reset the scalar fields of a {e fresh} state to checkpointed values —
    the first step of rebuilding a live core from a snapshot
    ({!Serve.Snapshot}).  [busy] is the {!settled_busy} value and the
    remaining fractions later {!inject}ed refer to [anchor].
    @raise Invalid_argument if the state already holds jobs, on a
    negative/NaN clock, an anchor outside [[0, clock]] or a negative
    [next_id]. *)

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
(** Re-admit a checkpointed live job with explicit progress (at the
    {!anchor}) and allocation, in increasing [id] order.  [alone_time],
    the cached execution-rate columns and the predicted finish are
    recomputed from [app] (pure functions of the app, platform,
    allocation and anchor, so the restored values are bit-identical to
    the originals).  Does not advance the clock or bump epochs.
    @raise Invalid_argument on a duplicate or out-of-order id. *)

val complete : t -> job -> unit
(** Mark a job finished at the current time and retire it from the live
    set.  O(1), except that retiring the job {!next_finish} refers to
    rescans the live set for the next one.
    @raise Invalid_argument if the job is not live. *)

val cancel : t -> job -> unit
(** Retire a live job without completion (an explicit departure); costs
    as {!complete}. *)

val complete_due : t -> eps:float -> (job -> unit) -> unit
(** The completion sweep, one pass over the live set: complete every
    running job whose {!remaining} is at most [eps] or whose predicted
    finish is not after {!now}, calling [f] on each right after it is
    retired (in arrival order), and record the earliest predicted finish
    among the survivors as {!next_finish}.  [f] must not admit or retire
    jobs. *)

(** {2 Live-set queries} *)

val live : t -> job array
(** Live jobs (queued or running) in arrival order.  The array is fresh;
    the handles are the live jobs. *)

val live_count : t -> int
(** Number of live jobs, without materializing them. *)

val finished : t -> job list
(** Retired jobs (completed and cancelled), in retirement order. *)

val running : t -> int
(** Live jobs currently holding processors.  O(1): a maintained count. *)

val queued : t -> int
(** Live jobs admitted but not yet allocated ([procs = 0]).  O(1). *)

val remaining_app : job -> Model.App.t
(** The residual application: [app] with work scaled by the remaining
    fraction.  @raise Invalid_argument on a finished job. *)

val remaining_time : platform:Model.Platform.t -> job -> float
(** Time to completion under the job's current allocation; [infinity]
    while queued (and after retirement).  Reads the cached
    execution-rate column — bit-identical to recomputing
    {!Model.Exec_model.exe} on the current allocation. *)

val predicted_finish : job -> float
(** The absolute instant the job completes under its current allocation,
    [anchor + rem_anchor * Exe(p, x)], fixed when the allocation was
    installed; [infinity] while queued and after retirement.  O(1). *)

val next_finish : t -> float
(** The earliest absolute predicted finish over the live set
    ([infinity] when nothing runs): the minimum of
    [anchor + rem_anchor * Exe(p, x)] as found by the last install,
    {!inject}, {!complete_due} or earliest-finish rescan.  O(1). *)

val demand_summary : t -> float * float * float
(** [(used, queued_work, total_work)] over the live set in one column
    scan: the processor shares in use, and the residual work
    [remaining * work_cost] of queued jobs and of all jobs — the inputs
    of the policy's degradation estimate. *)

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
(** Compact the live set, settle it at {!now} (write every remaining
    fraction, fold the busy integral, move the {!anchor} to {!now}) and
    expose the columns.  Positions are arrival (= id) order. *)

val apply_view : t ->
  n:int ->
  procs:float array ->
  cache:float array ->
  access:float array ->
  int
(** Install position-indexed allocations from the solver's buffers
    ([access] is the access cost at the new cache fraction, already
    derived during the solve): bump every epoch, refresh the cached
    execution rates and predicted finishes (and {!next_finish}), and
    return the number of {e migrations} — already-allocated jobs whose
    processor share or cache fraction changed by more than a 1e-9
    relative tolerance.  Must follow a {!view} with no interleaved
    admission, retirement or clock move.
    @raise Invalid_argument if the live set or the clock changed. *)

val compact : t -> unit
(** Squeeze retirement holes out of the iteration array now (normally
    lazy).  Exposed for the freelist/compaction invariant tests. *)

val mem_stats : t -> int * int * int * int
(** [(slots_ever, free_slots, live, dense_entries)] — the freelist and
    iteration-array occupancy, for tests and capacity probes.
    [slots_ever = free_slots + live] always; [dense_entries - live] is
    the current hole count. *)

val busy_integral : t -> float
(** [integral of (sum of live procs) dt] since creation, up to {!now}
    (one pass over the live set when jobs ran since the anchor). *)

val settled_busy : t -> float
(** The busy integral without the live jobs' progress since the
    {!anchor} (retired jobs' is included) — what a checkpoint stores. *)

val sweeps : t -> int
(** Passes over the whole live set so far: views, installs, completion
    sweeps, earliest-finish rescans, compactions and the O(n) queries
    ({!live}, {!demand_summary}, {!busy_integral},
    {!conservation_violation}).  Read-only; an event that neither
    re-solves nor completes a job adds none. *)

val conservation_violation : t -> string option
(** [None] when the live allocations satisfy the CoSchedCache
    constraints: every [procs >= 0], every [cache in [0, 1]],
    [sum procs <= p] and [sum cache <= 1] (relative tolerance 1e-6).
    Otherwise a description of the violated constraint. *)

val assert_conservation : t -> unit
(** @raise Failure with the {!conservation_violation} message, if any. *)
