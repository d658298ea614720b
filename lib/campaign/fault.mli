(** Deterministic fault injection for the campaign stack.

    A harness describes a *schedule* of injected failures — task
    exceptions and delays at trial boundaries, exceptions in the cache and
    journal stores, torn (prefix-only) persisted lines — where every
    decision is a pure function of the harness seed and the event's
    identity (trial index, store key), never of wall-clock time or worker
    interleaving.  The same harness therefore injects byte-for-byte the
    same faults at any [--jobs] count, which is what makes the failure
    paths of the trial pool, {!Cache}, {!Journal} and {!Campaign}
    testable and bit-reproducible.

    Arm a harness with {!with_harness} (or [Campaign.run ~fault]); the
    instrumentation points below are no-ops while nothing is armed, so
    production runs pay one atomic load per site. *)

exception Injected of string
(** The exception every injected failure raises; the payload names the
    site, key and attempt so failure reports are self-describing. *)

type store_site = [ `Cache | `Journal | `Snapshot ]
(** Persistent stores whose writers are instrumented: the campaign result
    cache, the write-ahead journal, and the serving layer's live-state
    snapshots ({!Serve.Snapshot}). *)

type t

val create :
  ?task_exn:float ->
  ?task_delay:float ->
  ?delay:float ->
  ?fail_attempts:int ->
  ?store_exn:float ->
  ?store_attempts:int ->
  ?torn_write:float ->
  seed:int ->
  unit ->
  t
(** [create ~seed ()] builds a harness.  [task_exn] (default 0) is the
    probability that a given trial's attempts raise; [task_delay]/[delay]
    likewise inject a sleep of [delay] seconds (default 0.05) at task
    entry, which trips a {!Watchdog} deadline shorter than it.
    [fail_attempts] (default [max_int]) bounds how many successive
    attempts of an affected trial fail — set it below a campaign's retry
    budget to exercise the retry-then-succeed path.  [store_exn] is the
    probability that operations on an affected cache/journal key raise,
    for the key's first [store_attempts] (default 1) operations.
    [torn_write] is the probability that an affected key's persisted line
    is written as a proper prefix of itself (a torn write), which the
    checksum layer must quarantine on reload. *)

val with_harness : t -> (unit -> 'a) -> 'a
(** Arms [t] globally (resetting its per-key operation counts), runs the
    function, and disarms on the way out, also on exception.  Harnesses do
    not nest. *)

val active : unit -> t option
(** The currently armed harness, if any. *)

(** {2 Instrumentation points} — called by the campaign stack; all are
    no-ops when no harness is armed. *)

val task_point : trial:int -> attempt:int -> unit
(** Entry of a trial attempt: may sleep and/or raise {!Injected}. *)

val store_point : site:store_site -> key:string -> unit
(** Entry of a cache/journal mutation: may raise {!Injected}. *)

val file_op : site:store_site -> string -> string -> (string -> unit) -> unit
(** [file_op ~site op path f] runs [f path] behind a {!store_point}
    keyed [op ^ " " ^ path] (say ["rename FILE"]): one file operation of
    a checkpoint, which an armed harness can cut before it runs, as a
    crash there would. *)

val mangle : site:store_site -> key:string -> string -> string
(** [mangle ~site ~key line] is the line a store writer must actually
    persist for [key] — either [line] or a torn proper prefix of it. *)
