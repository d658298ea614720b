(** A minimal discrete-event simulation engine.

    Events are thunks scheduled at absolute times; handlers may schedule
    further events.  Time never goes backwards: scheduling in the past
    raises.  The co-schedule simulator drives its completion events
    through this engine; it is exposed (and tested) independently because
    it is generally useful. *)

type t

val create : unit -> t
(** An engine with an empty queue at time 0. *)

val now : t -> float
(** Current simulation time; 0 before the first event. *)

val schedule : t -> at:float -> (t -> unit) -> unit
(** [schedule t ~at handler] enqueues [handler] to run at time [at].
    @raise Invalid_argument if [at] is NaN or earlier than [now t]. *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Relative variant; [delay >= 0]. *)

val run : ?until:float -> t -> unit
(** Process events in time order until the queue drains, or until the
    first event strictly beyond [until] (which stays queued; [now]
    advances to [until] in that case). *)

val advance_to : t -> to_:float -> unit
(** Process every event due at or before [to_], then set the clock to
    [to_] (clamped never to go backwards) even if the queue is empty —
    unlike {!run}, which leaves the clock at the last event when the
    queue drains.  Stepwise drivers (the online service's live core) use
    this so relative schedules anchor at the external notion of now.
    @raise Invalid_argument on a NaN [to_]. *)

val clear : t -> unit
(** Drop every queued event without running it; the clock stays.  A
    caller that keeps one pending event replaces it this way. *)

val events_processed : t -> int
(** Handlers executed so far. *)

val pending : t -> int
(** Number of events still queued, without draining them.  The online
    co-scheduling driver uses this to decide whether a forced re-solve is
    needed after the queue runs dry. *)

val next_time : t -> float option
(** Timestamp of the earliest queued event ([None] when the queue is
    empty).  A peek: the event stays queued. *)
