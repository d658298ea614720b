(** Checkpoint files for the daemon backend: the full live-core state
    ({!Online.Service.persist}), the journal sequence watermark, and the
    (session, request-id) dedup cache.

    A file is binary: {!magic}, the format version and the payload
    length, then the payload, then a 64-bit FNV-1a checksum of those
    header bytes and the payload ({!Campaign.Digest.sum64}; format 2
    summed the payload alone).  The payload holds the watermark
    and the live core's scalars, then one column per job field (ids,
    length-prefixed names, the IEEE-754 bits of the ten float fields,
    the allocated flags, epochs and migrations), then the
    length-prefixed dedup entries.  Floats are stored as their bits, so
    a restore is bit-identical ({!Online.Service.live_restore}),
    [infinity] and [-0.] included.  Format 3 stores each remaining
    fraction and the busy integral at the anchor [p_last_solve], as the
    live core holds them; format 2 has the same layout but stored them
    at [p_time], so a format-2 file is read with its anchor moved to
    [p_time] (exact for the state it holds; only the warm seed's
    fallback ageing base differs).

    The write path is crash-safe in layers: the file is assembled in
    [path ^ ".tmp"], {e re-read and validated} (length, checksum, and a
    full decode with [Model.App.make] validation, as a restore would)
    before being published by an atomic rename, and only a published
    (hence proven) snapshot ever triggers journal compaction in
    {!Backend}.  A crash — or an armed {!Campaign.Fault} harness tearing
    the payload at the [`Snapshot] store site — therefore leaves either
    the previous snapshot or a tmp file nobody reads, never a corrupt
    published checkpoint backed by a compacted journal.

    Recovery ({!load}) quarantines an invalid snapshot to
    [path ^ ".quarantine"] and returns [None], at which point the backend
    falls back to full journal replay.  Format 1, the JSON layout
    (one payload line and one checksum line) that earlier releases
    wrote, is still read but never written: the journal prefix such a
    snapshot covers was compacted away, so it cannot be rebuilt by
    replay.

    Snapshots are kept in {e generations}: on publish with [keep = N],
    the previous checkpoint is rotated to [path.1], that one to [path.2]
    and so on, the oldest falling off the end.  Recovery
    ({!load_generations}) walks generation by generation — newest first,
    quarantining invalid files — before the backend resorts to full
    replay, so one torn checkpoint costs one generation of replay, not
    the whole history.

    With [keep >= 2] a checkpoint only unlinks files and renames into
    vacant names.  A rename over an existing file costs far more on
    some filesystems: ext4 mounted with [auto_da_alloc] forces writeback
    of the renamed file's data first, about 80 ms per rename on a
    virtual disk, against well under 0.1 ms for a rename into a vacant
    name.  With [keep = 1] the publish still renames over [path], since
    that is the only atomic replace, and still pays that writeback.
    Nothing here calls [fsync]: a published checkpoint survives a
    killed process, not a power loss. *)

type t = {
  seq : int;
      (** Journal watermark: entries with sequence < [seq] are already
          folded into this snapshot and are skipped on replay. *)
  persist : Online.Service.persist;  (** The live core. *)
  dedup : (string * int * Protocol.response) list;
      (** Cached [(sid, rid, response)] idempotency entries. *)
}

val format_version : int
(** Version stamped into every snapshot file {!write} produces (3).
    {!validate} also reads format 2 and format 1, the JSON layout
    earlier releases wrote, so that a directory they left still
    restores; both are re-anchored at their [p_time]. *)

val magic : string
(** The 8-byte tag a binary snapshot file starts with. *)

val file_format : path:string -> int option
(** The format version the file at [path] declares in its first bytes:
    the version field after {!magic}, or the number after the format-1
    prefix [{"snapshot":].  [None] when the file does not start like a
    snapshot (or cannot be read).  Only the header is read: a declared
    version says nothing about the rest of the file. *)

val quarantine_path : string -> string
(** Where {!load} preserves an invalid snapshot: [path ^ ".quarantine"]. *)

val generation_path : string -> int -> string
(** [generation_path path k] is where generation [k] lives: [path]
    itself for [k = 0] (the newest), [path.k] for older ones.
    @raise Invalid_argument on a negative [k]. *)

val write : path:string -> ?keep:int -> t -> (unit, string) result
(** Write, validate, then atomically publish a snapshot.  With
    [keep > 1] (default 1), surviving generations are rotated one slot
    down first, so the last [keep] validated checkpoints stay on disk:
    [path.(keep-1)] is unlinked, the others are renamed from the oldest
    down, and the new file is published into the vacated [path].  When
    [path.(keep-2)] is vacant, [path.(keep-1)] is unlinked only after
    the publish instead, so a crash never leaves no generation on disk.
    Each of these file operations passes through
    {!Campaign.Fault.store_point} at the [`Snapshot] site, keyed
    ["unlink P"], ["rename P"] or ["publish P"] by the file [P] it acts
    on.
    [Error reason] means the written bytes failed re-validation (torn
    write — injected or real); the previous snapshot, if any, is left in
    place (unrotated) and the tmp file is removed.  Callers must not
    compact the journal on [Error].
    @raise Invalid_argument if [keep < 1]. *)

val load : path:string -> t option
(** The published snapshot, if present and valid.  An invalid file is
    quarantined and reported as [None] (recovery then replays the full
    journal). *)

val load_generations : path:string -> keep:int -> (t * int) option
(** Walk generations newest-first: the first valid one is returned with
    its generation index; invalid files along the way are quarantined
    (each to its own [.quarantine]).  [None] means no generation was
    usable and recovery must replay the whole journal.
    @raise Invalid_argument if [keep < 1]. *)

val validate : path:string -> (t, string) result
(** Non-destructive check used by [cosched journal] and by {!write}:
    read and verify the file (either format), reporting what is wrong
    instead of quarantining.  Never raises: a truncated, corrupt or
    unreadable file is an [Error]. *)
