(** Append-only, checksummed JSONL checkpoint of completed campaign trials.

    Each completed trial becomes one line

    {v {"trial":12,"key":"0f3a...","values":[1.25,3.5],"sum":"9c41..."} v}

    and every append writes one flushed line at the end of the file, so
    appending is O(1) in the journal's history and killing a run
    mid-flight leaves at worst one torn final line — which the checksum
    layer quarantines on the next resume.  Whole-file rewrites ({!create}
    healing a corrupted file, {!rewrite} compacting one) go through a tmp
    file + rename, so the file on disk is never half-replaced.  [values]
    are printed with 17 significant digits, which
    round-trips an IEEE-754 double exactly; [sum] is a 64-bit FNV-1a
    checksum of the raw field texts, so any single-byte corruption of a
    line is detected on reload.

    {!create} replays an existing journal.  Intact lines (including
    pre-checksum legacy lines, accepted unverified) are loaded; torn,
    truncated or checksum-mismatched lines are *quarantined*: preserved
    verbatim in [path ^ ".quarantine"], counted in {!quarantined}, and
    dropped from the replayed state — a resumed campaign recomputes
    exactly those trials, and {!create} heals the journal in place
    (atomic rewrite without the bad lines) so subsequent appends extend a
    clean file.  Corruption never crashes a resume.

    When a {!Fault} harness is armed, appends pass through its
    [store_point] (injected exceptions) and the writer through [mangle]
    (torn writes) — that is how the quarantine path is tested
    deterministically. *)

type entry = { trial : int; key : string; values : float array }

type t

val create : path:string -> t
(** Opens (or starts) the journal at [path], replaying intact entries and
    quarantining corrupt ones, and opens [path] for appending (creating
    an empty journal if none exists).
    Domain-safe: workers may append concurrently.
    @raise Sys_error naming [path] when it cannot be opened (a missing
    directory, no permission). *)

val path : t -> string

val quarantine_path : string -> string
(** Where {!create} preserves corrupt lines: [path ^ ".quarantine"]. *)

val quarantined : t -> int
(** Number of corrupt lines quarantined when this handle replayed the
    file. *)

val append : t -> entry -> unit
(** Records an entry by appending one flushed line — O(1) in the
    journal's length.  Entries whose key is already journalled are
    ignored (the first result wins).
    @raise Fault.Injected when an armed harness injects a store fault. *)

val rewrite : t -> entry list -> unit
(** Atomically replaces the journal's contents with [entries] (oldest
    first) through a tmp file + rename, resetting the in-memory replay
    state to match.  This is the compaction primitive: after a verified
    snapshot, callers rewrite the journal down to the entries newer than
    the snapshot watermark. *)

val lookup : t -> string -> float array option
(** Replayed or appended values for a digest key. *)

val entries : t -> entry list
(** All entries, oldest first. *)

val length : t -> int

val load : path:string -> entry list
(** Static read of a journal file (oldest first); corrupt lines are
    skipped, a missing file is the empty list. *)

val scan : path:string -> entry list * string list
(** Static read returning both the intact entries (oldest first) and the
    raw corrupt lines; neither quarantines nor writes anything. *)
