(** The flat per-event integrator: the online service before progress
    was epoch-anchored.

    Every event integrates every running job's remaining fraction and
    the busy integral over the elapsed step, and re-predicts the next
    completion as [now + min (remaining * exe)].  Re-solves run the
    production warm solver on a scratch {!Online.State.t} into which the
    live jobs are injected at their current progress, so the solver sees
    bit-identical inputs whenever the two sides' remaining fractions
    agree.  The test suite replays operation sequences through
    {!Online.Service} and this integrator and compares every job. *)

type ojob = {
  o_app : Model.App.t;  (** The job's application, as submitted. *)
  mutable o_rem : float;  (** Remaining fraction of its work. *)
  mutable o_procs : float;  (** Installed processors (0 when queued). *)
  mutable o_cache : float;  (** Installed cache fraction. *)
  mutable o_access : float;  (** Access cost at [o_cache]. *)
  mutable o_exe : float;
      (** Run time from scratch under the installed allocation
          ([infinity] when queued). *)
  mutable o_live : bool;  (** Neither completed nor cancelled. *)
  mutable o_finish : float option;  (** Completion time, once completed. *)
  mutable o_cancelled : bool;  (** Retired by a cancel. *)
}
(** One admitted job. *)

type t = {
  o_platform : Model.Platform.t;  (** The machine. *)
  o_policy : Online.Policy.t;  (** When to re-solve. *)
  o_inc : Online.Incremental.t;  (** The warm solver's own state. *)
  mutable o_clock : float;  (** Model time. *)
  mutable o_busy : float;  (** Integral of busy processors over time. *)
  mutable o_jobs : ojob list;
      (** Every admitted job in id order, newest last. *)
  mutable o_since : int;  (** Events since the last re-solve. *)
  mutable o_last_solve : float;  (** Time of the last re-solve. *)
  mutable o_pred : float option;  (** The predicted next completion. *)
  mutable o_resolves : int;  (** Re-solves run. *)
}
(** The integrator's whole state, open for the tests to compare. *)

val create : platform:Model.Platform.t -> Online.Policy.t -> t
(** An empty integrator at time 0. *)

val submit : t -> at:float -> Model.App.t -> unit
(** Fire the completions due by [at], integrate to [at], admit the
    application as the next id, then decide whether to re-solve. *)

val cancel : t -> at:float -> id:int -> unit
(** As {!submit}, retiring job [id] instead; a no-op past the
    completions when [id] is unknown or already retired. *)

val ping : t -> at:float -> unit
(** Fire the completions due by [at] and integrate to [at]. *)

val drain : t -> unit
(** Run every live job to completion, re-solving whenever the live set
    has no running job. *)

val apply :
  Online.State.t -> Online.State.job array -> Model.Schedule.alloc array ->
  int
(** Install [allocs] on [jobs], which must be the whole live set in
    arrival order, through the state's one install path: a settling
    {!Online.State.view}, then {!Online.State.apply_view} with the
    access costs recomputed from the model (the solver derives the same
    values during a re-solve).  Returns the migration count.
    @raise Invalid_argument when [jobs] is not the live set or the
    lengths differ. *)
