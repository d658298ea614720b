(** Service-level metrics of one online run.

    Response time is completion minus arrival; stretch normalises it by
    the job's runtime alone on the whole platform (so 1 is the
    ideal-isolation floor); utilization is the busy-processor integral
    over [p * makespan].  The solver counters come straight from
    {!Incremental.counters}, so warm-vs-cold comparisons are apples to
    apples. *)

type t = {
  jobs : int;               (** Arrivals admitted. *)
  completed : int;
  cancelled : int;
  events : int;             (** Arrivals + effective departures +
                                completion sweeps handled. *)
  resolves : int;
  forced_resolves : int;    (** Re-solves forced to avoid starvation
                                (queued jobs, nothing running). *)
  migrations : int;
  solver_iters : int;
  partition_ops : int;
  warm_hits : int;          (** Warm solves seeded by a predicted
                                makespan ({!Incremental.counters}). *)
  cold_fallbacks : int;     (** Warm solves that fell back to the cold
                                root-finder bracket. *)
  makespan : float;         (** Time the last job left the system. *)
  mean_response : float;
  max_response : float;
  mean_stretch : float;
  max_stretch : float;
  utilization : float;      (** Busy integral / (p * makespan); 0 when
                                nothing ran. *)
}

val render : label:string -> t -> string
(** Two-column table via {!Util.Table}. *)

val to_json : t -> string
(** Flat JSON object with the fields above (snake_case keys, [%.17g]
    floats) — one entry of [BENCH_online.json]. *)
