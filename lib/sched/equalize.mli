(** Processor assignment equalising completion times (Section 5) — the
    constructive side of Lemma 2.

    Lemma 1 says optimal schedules finish all applications together;
    Lemma 2, that given the cache split [x] the optimal processor counts
    are the ones achieving that.  Once the cache fractions [x_i] are
    fixed, this module gives every application the processor share that
    makes all of them finish at the same time [K].  With the Eq. (2)
    work cost [c_i = w_i (1 + f_i (ls + ll * miss_i))] the
    per-application time is [(s_i + (1 - s_i)/p_i) c_i = K], hence
    [p_i = (1 - s_i) / (K / c_i - s_i)], and [K] solves

    [sum_i (1 - s_i) / (K / c_i - s_i) = p.]

    The left-hand side decreases strictly in [K], so [K] is found by a
    binary search, bracketed between "everyone gets all [p] processors"
    and an upper bound grown from "everyone gets one processor" (the
    latter is insufficient when [n > p]).

    One allocation-free core serves two entries, each with its own fixed
    refinement: the paper entries ({!solve_makespan}, {!schedule_k},
    {!solve_with_costs}) bisect a cold bracket, and the online entry
    {!solve_cols} runs warm or cold with Illinois false position.
    DESIGN.md explains why the paper path keeps bisection. *)

val work_costs :
  platform:Model.Platform.t -> apps:Model.App.t array -> x:float array ->
  float array
(** The [c_i] values for the given cache fractions.
    @raise Invalid_argument on length mismatch. *)

val solve_makespan :
  ?tol:float -> ?iters:int ref ->
  platform:Model.Platform.t -> apps:Model.App.t array ->
  float array -> float
(** The common completion time [K], by cold bisection (Section 5's
    binary search).  [tol] is the relative bracket tolerance (default
    1e-13).

    A thin adapter over {!solve_with_costs}: it fills fresh [s_i] and
    [c_i] columns from [apps] and the cache fractions.  The root-finder
    itself is allocation-free (an all-float state record, the demand
    loop inlined), so a solve allocates its two columns and nothing per
    objective evaluation.

    [iters], when given, is incremented once per evaluation of the
    processor-demand objective.

    @raise Invalid_argument on an empty instance or length mismatch. *)

val solve_with_costs :
  ?tol:float -> ?iters:int ref ->
  platform:Model.Platform.t -> s:float array ->
  costs:float array -> n:int -> unit -> float
(** The paper entry of the root-finder, for callers that computed the
    columns themselves (the refinement loop evaluates the work costs
    through a memoized {!Model.Kernel}).  Reads the sequential fractions
    [s.(0 .. n-1)] and work costs [costs.(0 .. n-1)] — either buffer may
    be larger — and bisects a cold bracket.

    The demand sum inside each objective evaluation is chunked exactly
    as in {!solve_cols}: a plain loop up to 2048 positions, ascending
    per-chunk partials beyond.

    When the observability layer is armed ({!Obs.Probe.on}), each call
    additionally records the [equalize.*] metrics (solve count, objective
    evaluations, relative bracket width at bisection entry); with probes
    off the instrumented wrapper is a single flag test and the result is
    bit-identical either way (QCheck-enforced).
    @raise Invalid_argument if [n = 0]. *)

val solve_cols :
  ?tol:float -> ?warm:float -> ?iters:int ref ->
  platform:Model.Platform.t -> s:float array ->
  costs:float array -> n:int -> unit -> float
(** The online entry of the root-finder, for the service's flat-array
    hot path.  Same columns and bracket as {!solve_with_costs}, but the
    final refinement uses Illinois false position (damped secant with a
    guaranteed bracket) instead of bisection — typically 6–10 objective
    evaluations to the same [hi - lo <= tol * (1 + |mid|)] stopping
    criterion where bisection needs ~40.  Each final bracket holds the
    root, so the returned makespan is within two bracket widths of
    {!solve_with_costs}'s (QCheck-checked in [test/test_perf.ml], warm
    and cold, on both sides of the demand chunk width).  Not instrumented with the
    [equalize.*] metrics.

    [warm] is an optional previous (or predicted) makespan used as a
    bracket seed: a tight bracket is grown (factor 1.25) above or shrunk
    below it instead of the cold bracket spanning from "everyone gets
    all [p] processors" to "everyone gets one" — the same root to within
    [tol], reached with fewer objective evaluations when the seed is
    close.  A non-finite or infeasibly low seed falls back to the cold
    bracket.  [iters] counts objective evaluations as in
    {!solve_makespan}.

    The demand sum is chunked at a fixed width (2048 positions) whenever
    [n] exceeds one chunk, with per-chunk partials combined in ascending
    order, so the association depends only on [n].  The chunks run in
    the calling domain; the chunked association is kept so that
    makespans above 2048 jobs stay bit-identical to those recorded
    with it ([test_online]'s n = 2500 golden pins two of them).
    @raise Invalid_argument if [n = 0]. *)

val procs_at :
  platform:Model.Platform.t -> apps:Model.App.t array -> x:float array ->
  k:float -> float array
(** The processor shares [p_i(K)]; entries are [infinity] if [K] is below
    an application's parallel-time floor [s_i c_i]. *)

val schedule :
  ?tol:float -> platform:Model.Platform.t -> apps:Model.App.t array ->
  float array -> Model.Schedule.t
(** Solve for [K], derive the [p_i], and rescale them by a common factor
    so they sum to [p] exactly (the bisection residue is at the [tol]
    level, so completion times stay equal to within the same order). *)

val schedule_k :
  ?tol:float -> ?iters:int ref ->
  platform:Model.Platform.t -> apps:Model.App.t array ->
  float array -> Model.Schedule.t * float
(** {!schedule} that also returns the solved makespan [K] and accepts
    the [iters] counter of {!solve_makespan}. *)
