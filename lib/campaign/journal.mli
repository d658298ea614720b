(** Append-only, checksummed JSONL checkpoint of completed campaign trials.

    Each completed trial becomes one line

    {v {"trial":12,"key":"0f3a...","values":[1.25,3.5],"sum":"9c41..."} v}

    and every append writes one flushed line at the end of the file, so
    appending is O(1) in the journal's history and killing a run
    mid-flight leaves at worst one torn final line — which the checksum
    layer quarantines on the next resume.  {!create} healing a corrupted
    file rewrites it through a tmp file + rename, so the file on disk is
    never half-replaced.  [values]
    are printed with 17 significant digits, which
    round-trips an IEEE-754 double exactly; [sum] is a 64-bit FNV-1a
    checksum of the raw field texts, so any single-byte corruption of a
    line is detected on reload.

    {!create} replays an existing journal.  Intact lines are loaded;
    torn, truncated or checksum-mismatched lines, and lines without a
    [sum] field, are *quarantined*: preserved
    verbatim in [path ^ ".quarantine"], counted in {!quarantined}, and
    dropped from the replayed state — a resumed campaign recomputes
    exactly those trials, and {!create} heals the journal in place
    (atomic rewrite without the bad lines) so subsequent appends extend a
    clean file.  Corruption never crashes a resume.

    When a {!Fault} harness is armed, appends pass through its
    [store_point] (injected exceptions) and the writer through [mangle]
    (torn writes) — that is how the quarantine path is tested
    deterministically.

    {2 Segments}

    A daemon journal is cut into one segment per snapshot generation:
    segment 0 is [path] itself and takes every append, segment [k >= 1]
    is [path.k].  {!rotate} retires segments by unlinking and renaming
    into vacant names only, never replacing a file.  {!create}, {!entries},
    {!length} and {!lookup} span every segment.  A campaign journal
    never rotates and stays the single file [path]. *)

type entry = { trial : int; key : string; values : float array }

type t

val create : path:string -> t
(** Opens (or starts) the journal at [path], replaying the intact entries
    of every segment, oldest segment first, and quarantining corrupt
    ones (each segment to its own {!quarantine_path}); then opens [path]
    for appending (creating an empty journal if none exists).
    Domain-safe: workers may append concurrently.
    @raise Sys_error naming [path] when it cannot be opened (a missing
    directory, no permission). *)

val quarantine_path : string -> string
(** Where {!create} preserves corrupt lines: [path ^ ".quarantine"]. *)

val segment_path : string -> int -> string
(** [segment_path path k] is segment [k]'s file: [path] for [k = 0],
    [path.k] for older ones.
    @raise Invalid_argument on a negative [k]. *)

val segments : path:string -> string list
(** The segment files of the journal at [path] that exist on disk,
    oldest first. *)

val quarantined : t -> int
(** Number of corrupt lines quarantined when this handle replayed the
    file. *)

val append : t -> entry -> unit
(** Records an entry by appending one flushed line — O(1) in the
    journal's length.  Entries whose key is already journalled are
    ignored (the first result wins).
    @raise Fault.Injected when an armed harness injects a store fault. *)

val rotate : t -> keep:int -> unit
(** Starts a new segment: unlinks the segments at index [>= keep - 1],
    renames segment [k] to [k + 1] from the highest index down (every
    target is vacant), and creates a fresh empty [path], so the path
    always exists.  Afterwards [keep] segments at most remain, and the
    in-memory state drops the entries of the unlinked ones.  With
    [keep = 1] the journal is emptied.  Each file operation passes
    through {!Fault.store_point} at the [`Journal] site, keyed
    ["unlink P"], ["rename P"] or ["create P"] by the file [P] it acts
    on.
    @raise Invalid_argument if [keep < 1]. *)

val lookup : t -> string -> float array option
(** Replayed or appended values for a digest key. *)

val entries : t -> entry list
(** All entries of every segment, oldest first. *)

val length : t -> int

val load : path:string -> entry list
(** Static read of one journal file (oldest first); corrupt lines are
    skipped, a missing file is the empty list. *)

val scan : path:string -> entry list * string list
(** Static read returning both the intact entries (oldest first) and the
    raw corrupt lines; neither quarantines nor writes anything. *)
