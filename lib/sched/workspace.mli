(** Preallocated scratch buffers for the solver hot path.

    {!Equalize.solve_makespan}, {!Equalize.schedule_k} and
    {!Refine.refine} accept an optional
    workspace; with one, their per-solve intermediate arrays come from
    these buffers instead of fresh allocations, and repeated solves (a
    sweep, the online service's event loop) run allocation-free in the
    steady state.  Results are bit-identical with and without a
    workspace — the buffers change where the numbers live, never what
    they are (property-tested).

    Buffers are handed out by capacity: an accessor grows its buffer to
    at least [n] (amortised doubling) and returns it; contents beyond
    the caller's writes are unspecified and every solve overwrites them.
    A workspace must not be shared across domains. *)

type t

val create : ?n:int -> unit -> t
(** A workspace with initial capacity [n] (default 0; buffers grow on
    demand). *)

val seq : t -> int -> float array
(** The sequential-fraction column [s_i] the makespan root-finder reads,
    grown to capacity [>= n]. *)

val costs : t -> int -> float array
(** The work-cost buffer, grown to capacity [>= n]. *)

val procs : t -> int -> float array
(** The processor-share buffer, grown to capacity [>= n]. *)

val gradient : t -> int -> float array
(** The gradient buffer, grown to capacity [>= n]. *)

val proposal : t -> int -> float array
(** The refinement-proposal buffer, grown to capacity [>= n]. *)
