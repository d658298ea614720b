(** Experiment-campaign engine: sharded, checkpointable, fault-tolerant
    trials.

    A campaign is an array of independent trials, each owning a pre-split
    {!Util.Rng} substream.  {!run} shards the trials over an {!Exec.Pool} of
    worker domains, consults the {!Journal} (checkpoint of a previous,
    possibly interrupted, run, and the memo of earlier campaigns sharing
    the handle) before computing anything, checkpoints every freshly
    computed result, and returns the per-trial outcomes *in trial order*
    together with run statistics.

    Trials are *isolated*: a raising trial is captured as a structured
    {!trial_outcome} instead of aborting the pool.  The [on_failure]
    policy decides what happens next — [`Abort] (default) re-raises
    deterministically as {!Trial_failed} for the smallest failing index
    after all trials drain, [`Skip] records the failure as an explicit
    hole, [`Retry] re-attempts up to [max_retries] times with
    deterministic seeded backoff before recording the hole.  A
    cooperative {!Watchdog} deadline bounds each attempt, and a {!Fault}
    harness can inject failures deterministically for testing.

    Determinism guarantee: because every trial's RNG is split from the
    master before dispatch, every retry restarts from a fresh copy of the
    trial's pristine substream, and results are returned (and must be
    merged) in trial-index order, the output is bit-identical for any
    [jobs] count — and under an armed fault harness, for any [jobs] count
    with the same injected-fault schedule. *)

module Digest : module type of Digest
module Journal : module type of Journal
module Fault : module type of Fault
module Watchdog : module type of Watchdog

type failure = {
  attempts : int;  (** Attempts consumed, including the first. *)
  error : string;  (** [Printexc.to_string] of the last exception. *)
  backtrace : string;  (** Raw backtrace of the last attempt. *)
}

type trial_outcome =
  | Ok of float array  (** The trial's payload. *)
  | Failed of failure  (** An explicit hole: every attempt raised. *)

exception Trial_failed of int * failure
(** [(trial index, failure)]; raised by {!run} under [`Abort] and by
    {!results} on a hole.  Its registered printer includes the trial
    index, the error and the backtrace. *)

type stats = {
  total : int;  (** Trials in the campaign. *)
  computed : int;  (** Trial computations executed by this run. *)
  journal_hits : int;  (** Trials replayed from the checkpoint journal. *)
  failed : int;  (** Trials that exhausted every attempt. *)
  retried : int;  (** Extra attempts spent on raising trials. *)
  quarantined : int;
      (** Corrupt lines the attached journal quarantined when it was
          opened. *)
  elapsed : float;  (** Wall-clock seconds. *)
  jobs : int;  (** Worker domains used. *)
}

type outcome = {
  outcomes : trial_outcome array;  (** [outcomes.(i)] is trial [i]'s fate. *)
  stats : stats;
}

val results : outcome -> float array array
(** All payloads, in trial order.  @raise Trial_failed on the first
    hole — use when the caller requires a complete campaign. *)

val ok_results : outcome -> float array array
(** Payloads of the successful trials only, in trial order; failed trials
    are omitted here but remain visible in [outcomes], {!failures} and
    [stats.failed] — never silently dropped. *)

val failures : outcome -> (int * failure) list
(** The holes: failed trial indices with their structured failures. *)

val run :
  ?jobs:int ->
  ?journal:Journal.t ->
  ?on_trial:(completed:int -> total:int -> unit) ->
  ?on_failure:[ `Abort | `Skip | `Retry ] ->
  ?max_retries:int ->
  ?trial_timeout:float ->
  ?fault:Fault.t ->
  key:(int -> Util.Rng.t -> string) ->
  work:(int -> Util.Rng.t -> float array) ->
  Util.Rng.t array ->
  outcome
(** [run ~key ~work rngs] executes [work i rng_i] for every trial [i],
    where [rng_i] is a private copy of [rngs.(i)] (the caller's array is
    never mutated, so a campaign can be re-run from the same RNGs).

    [jobs] is the worker-domain count: 1 (default) runs sequentially in
    the calling domain, [0] means {!Exec.Pool.default_jobs}.

    [key i rng] must name the trial's content (see {!Digest}); it is only
    invoked — on its own RNG copy — when a journal is present.  Workers
    probe the journal and append every fresh result to it, so one handle
    passed to several campaigns also answers a trial any of them has
    already computed.  [on_trial] is called after each settled trial (from
    worker domains, under a lock) with the running completion count —
    progress reporting for long campaigns.

    [on_failure] (default [`Abort]) is the trial-failure policy described
    above; [max_retries] (default 2) bounds the extra attempts under
    [`Retry]; [trial_timeout] installs a cooperative {!Watchdog} deadline
    (seconds) around every attempt.  [fault] arms a deterministic
    {!Fault} harness for the duration of the run. *)

val report : stats -> string
(** One-line human-readable summary: trials, computed/journal split,
    elapsed time and job count, plus the failure counters
    (failed/retried/quarantined) whenever any is nonzero. *)
