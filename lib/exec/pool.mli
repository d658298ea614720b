(** Shared fixed-size domain pool with a mutex/condvar work queue.

    This is the execution substrate of the batch campaign engine and of
    [Theory.Bnb]'s parallel subtree search: a set of worker domains
    blocking on a condition variable until tasks arrive.  One usage
    shape is supported, the ordered map: {!map_array}/{!map_outcomes}
    distribute an array of independent computations and collect results
    {e in input order}, whatever the completion order.  Exceptions are
    deterministic — always the one attached to the smallest failing
    input index.

    With [jobs <= 1] no domain is spawned and everything runs in the
    calling domain, in index order — byte-for-byte the sequential
    behaviour.  When observability probes are enabled ({!Obs.Probe.on})
    the pool counts dispatched tasks and worker idle waits. *)

type t
(** A pool of worker domains.  Values of this type must be released with
    {!shutdown} (or created through {!with_pool}). *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([jobs <= 1] spawns none
    and makes the pool a sequential executor). *)

val size : t -> int
(** Number of worker domains (0 for a sequential pool). *)

val default_jobs : unit -> int
(** The runtime's recommended domain count for this machine; the meaning
    of [--jobs 0]. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t job] enqueues [job] for execution by a worker domain.
    Raw building block for the ordered maps below; the caller is
    responsible for any completion signalling. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f a] applies [f] to every element of [a] on the pool's
    workers and returns the results in input order.  If one or more
    tasks raise, the exception of the smallest failing index is
    re-raised (with its backtrace) after all tasks have drained. *)

val map_outcomes :
  t -> ('a -> 'b) -> 'a array -> ('b, exn * Printexc.raw_backtrace) result array
(** Isolation variant of {!map_array}: every task's exception is
    captured in its own slot instead of aborting the map, so one raising
    task never costs the results of the others.  Never raises (short of
    asserts); results are in input order. *)

val shutdown : t -> unit
(** Drains the queue, then joins every worker domain.  Idempotent.
    After [shutdown] returns no pool domain is alive, so a caller may
    safely [fork]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exception. *)

val map_ordered : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** One-shot [with_pool ~jobs (fun t -> map_array t f a)]. *)

val map_outcomes_ordered :
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn * Printexc.raw_backtrace) result array
(** One-shot [with_pool ~jobs (fun t -> map_outcomes t f a)]. *)
