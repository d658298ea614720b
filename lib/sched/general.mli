(** Co-scheduling with generalised speedup profiles — the full version of
    the paper's future-work extension.

    Section 5 equalises completion times assuming Amdahl profiles.  Here
    each application carries an arbitrary {!Model.Speedup.t}; the common
    completion time [K] is found by bisection on the (monotone) total
    processor demand [sum_i procs_for(K)], where [procs_for] inverts each
    profile.  Two behaviours the Amdahl-only solver cannot express:

    - with [Comm] profiles (communication overhead), an application's
      time has a floor at its optimal processor count [p*]; the solver
      never assigns more than [p*], and the platform may legitimately be
      left with {e idle processors} when every application is at its
      floor;
    - the resulting [K] is exact for any mix of profiles on the same
      instance.

    Cache fractions are still chosen by the dominant-partition machinery
    (which only depends on [w], [f] and [d]); this module replaces the
    processor-assignment stage. *)

type app = {
  base : Model.App.t;
  profile : Model.Speedup.t;
}

val of_apps : Model.App.t array -> app array
(** Wrap with each application's own Amdahl profile. *)

type result = {
  procs : float array;     (** Assigned processors (possibly below the
                               platform total, see [idle]). *)
  x : float array;         (** The cache fractions used. *)
  times : float array;     (** Per-application completion times. *)
  makespan : float;
  idle : float;            (** Processors left unused (only with
                               non-monotone profiles). *)
}

val solve :
  platform:Model.Platform.t -> apps:app array -> x:float array -> result
(** Equalise completion times under the given cache fractions.  All
    applications reach the makespan exactly, except those pinned at their
    profile's floor, which may finish earlier.
    @raise Invalid_argument on an empty instance or length mismatch. *)

val solve_with_dominant :
  rng:Util.Rng.t -> platform:Model.Platform.t -> apps:app array -> result
(** The full heuristic: DominantMinRatio cache fractions (computed from
    the base applications), then {!solve}. *)
