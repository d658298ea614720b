(** The daemon's scheduling backend: one {!Online.Service.live} instance
    behind a request dispatcher, with a crash-safe write-ahead journal,
    periodic snapshot compaction, retry dedup, and load shedding.

    Every state-mutating request (submit, cancel, the implicit time
    advance of a timestamped query, drain) is appended to a
    {!Campaign.Journal} {e before} it is applied, keyed
    [verb:<seq>:<sidhex>:<rid>...] with a monotone sequence number.  On
    restart, {!create} replays the surviving entries oldest-first
    through a fresh live core; because the service is a deterministic
    function of its event timeline, the recovered job set is exactly the
    pre-crash one — torn tail lines are quarantined by the journal
    layer, not replayed.

    {2 Snapshots and compaction}

    With [config.snapshot] set, every [config.snapshot_every] journaled
    mutations the backend checkpoints the full live-core state
    ({!Online.Service.live_persist}) plus the dedup cache to a
    {!Snapshot} file and — only after the snapshot is written, re-read
    and validated — rotates the journal ({!Campaign.Journal.rotate}).
    The last [config.snapshot_keep] validated checkpoints are retained
    as generations ([path], [path.1], ...) beside one journal segment
    per generation: segment 0 ([journal]) takes the appends since the
    newest checkpoint, segment [k] ([journal.k]) the entries journalled
    between generation [k]'s checkpoint and generation [k-1]'s.  The
    rotation drops every segment older than the oldest generation still
    on disk, so with [snapshot_keep = 1] the journal is emptied.

    Recovery restores from the newest valid generation and replays only
    the entries at or past its sequence watermark, making restart cost
    O(live jobs + post-snapshot events) instead of O(history).  An
    invalid generation (torn write, injected fault) is quarantined and
    recovery falls back generation by generation before resorting to
    full journal replay.  What makes the fallback lossless is this
    invariant: {e for every valid generation [k] on disk, segments
    [0..k] hold every entry whose seq is at least [k]'s watermark.}  A
    checkpoint shifts the generations and then the segments one slot
    down, so a crash between any two of its file operations leaves it
    true: a generation shifted ahead of the segments only finds its tail
    in lower segments than it needs.  One torn file therefore costs one
    generation of extra replay, nothing more.

    The checkpoint only unlinks files and renames into vacant names
    (except the publish with [snapshot_keep = 1], see {!Snapshot.write}),
    and nothing calls [fsync]: the journal and the checkpoints survive a
    killed process, not a power loss.

    {2 Exactly-once retries}

    Requests carrying a session id are remembered by [(sid, rid)]: a
    retry of an already-executed mutation returns the original response
    verbatim without touching the core or the journal.  The cache holds
    successful mutations only (errors made no state change, so
    re-executing them is safe), is bounded FIFO, survives restarts (it
    is rebuilt during replay and persisted in snapshots), and makes a
    retrying client exactly-once against the journal.

    {2 Load shedding}

    With [config.shed_highwater > 0], the backend enters shed mode when
    live jobs reach the high-water mark and rejects submits with a
    structured [Overload] error carrying a [retry_after] hint — while
    still serving queries, cancels and drains — until the backlog falls
    to [config.shed_lowwater] (hysteresis, so the boundary does not
    flap).

    The backend is single-threaded by design: the daemon's [select] loop
    calls {!handle} one request at a time, in arrival order, which is
    what makes daemon-served schedules bit-identical to an offline
    {!Online.Service.run} over the same events. *)

type config = {
  service : Online.Service.config;  (** Policy / solver mode of the core. *)
  platform : Model.Platform.t;
  queue_depth : int;                (** Max live jobs before submissions
                                        are rejected with [Overload]. *)
  journal : string option;          (** Write-ahead journal path; [None]
                                        disables persistence. *)
  snapshot : string option;         (** Snapshot path; requires
                                        [journal].  [None] disables
                                        checkpointing. *)
  snapshot_every : int;             (** Journaled mutations between
                                        automatic snapshots; [0] means
                                        only explicit {!snapshot_now}
                                        calls checkpoint. *)
  snapshot_keep : int;              (** Snapshot generations kept on
                                        disk (>= 1); recovery falls back
                                        through them newest-first. *)
  shed_highwater : int;             (** Live jobs at which shed mode
                                        starts; [0] disables shedding. *)
  shed_lowwater : int;              (** Live jobs at which shed mode
                                        ends (must be <= highwater). *)
  shed_retry_after : float;         (** [retry_after] hint (seconds,
                                        wall clock) on overload errors. *)
}

val default_config : config
(** Paper-default platform, service defaults, depth 1024, no journal,
    no snapshotting (2 generations kept once enabled), no shedding,
    50 ms retry hint. *)

type t
(** A backend instance owning the live core, journal handle and dedup
    cache. *)

val create : config -> t
(** Fresh backend at model time 0 — unless [config.journal] names an
    existing journal (and possibly [config.snapshot] a valid snapshot),
    in which case the state is recovered first and the backend resumes
    at the recovered model time (see {!recovered}).  A drain entry in
    the journal re-runs the drain but does {e not} leave the restarted
    backend in draining state.

    @raise Invalid_argument if [snapshot] is set without [journal],
    [snapshot_keep < 1], or [shed_lowwater > shed_highwater] while
    shedding is enabled.
    @raise Sys_error naming the path when the journal cannot be opened
    ({!Campaign.Journal.create}) or the snapshot's directory does not
    exist. *)

val now : t -> float
(** Current model time of the live core. *)

val epoch : t -> int
(** Current allocation epoch ({!Online.Service.live_epoch}); stamps
    every response. *)

val draining : t -> bool
(** Whether a drain has been requested; once set, submissions are
    refused with [Draining] and the daemon exits after flushing. *)

val shedding : t -> bool
(** Whether load-shed mode is active (submits rejected until the
    backlog falls to the low-water mark). *)

val recovered : t -> int
(** Journal entries successfully replayed by {!create} (0 without a
    journal; entries below a restored snapshot's watermark are covered
    by the snapshot and not counted). *)

val snapshots_written : t -> int
(** Snapshots successfully written (and journal rotations performed)
    since start-up. *)

val live_jobs : t -> int
(** Jobs admitted but not yet finished or cancelled. *)

val snapshot_now : t -> (unit, string) result
(** Checkpoint immediately: persist the live core + dedup cache to the
    configured snapshot path, rotating the surviving generations, and
    on success rotate the journal, keeping one segment per generation
    still on disk (none past the fresh one when [snapshot_keep = 1]).
    [Error reason] when snapshotting is not configured, the written
    file failed validation (in which case the journal and existing
    generations are left untouched and recovery still has full
    history), or a file operation raised [Sys_error] (the journal is
    not rotated after a failed publish).  Every failure counts in
    [serve.snapshot_failures]; none raises. *)

val take_notices : t -> Online.Service.notice list
(** Drain the notices (re-solves, completions) the live core emitted
    since the last call, oldest first — the daemon broadcasts them to
    subscribed clients as push frames. *)

val shutdown_drain : t -> bool
(** The SIGTERM path: journal a drain entry, mark the backend draining,
    and run every live job to completion, polling
    {!Campaign.Watchdog.check} between steps.  Returns [false] when the
    installed deadline expired before the drain finished ([true]
    otherwise, including when no deadline is installed). *)

val handle : t -> clients:int -> Protocol.request -> Protocol.response
(** Process one request and produce its response (never raises: all
    failures become [R_error]).  [clients] is the daemon's current
    connection count, echoed in stats/status replies.  Requests with an
    [at] in the past are clamped to the current model time; [at] on a
    drain is ignored.  A request whose [(sid, rid)] matches a cached
    mutation returns the original response with no state change. *)
