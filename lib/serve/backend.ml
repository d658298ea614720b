open Protocol

type config = {
  service : Online.Service.config;
  platform : Model.Platform.t;
  queue_depth : int;
  journal : string option;
  snapshot : string option;
  snapshot_every : int;
  snapshot_keep : int;
  shed_highwater : int;
  shed_lowwater : int;
  shed_retry_after : float;
}

let default_config =
  {
    service = Online.Service.default_config;
    platform = Model.Platform.paper_default;
    queue_depth = 1024;
    journal = None;
    snapshot = None;
    snapshot_every = 0;
    snapshot_keep = 2;
    shed_highwater = 0;
    shed_lowwater = 0;
    shed_retry_after = 0.05;
  }

let m_snapshots =
  Obs.Metrics.counter ~help:"snapshots written (journal compactions)"
    "serve.snapshots"

let m_snapshot_failures =
  Obs.Metrics.counter
    ~help:"checkpoints that failed validation or raised an I/O error"
    "serve.snapshot_failures"

let m_journal_failures =
  Obs.Metrics.counter
    ~help:"requests refused because their journal entry could not be written"
    "serve.journal_failures"

let m_dedup_hits =
  Obs.Metrics.counter ~help:"retried requests answered from the dedup cache"
    "serve.dedup_hits"

let m_shed =
  Obs.Metrics.counter ~help:"submits rejected in load-shed mode"
    "serve.shed_rejects"

(* Cached idempotency replies are bounded FIFO; a client retrying
   anything but its most recent requests is outside the protocol's
   contract anyway. *)
let dedup_cap = 4096

type t = {
  lv : Online.Service.live;
  journal : Campaign.Journal.t option;
  snapshot_path : string option;
  snapshot_every : int;
  mutable seq : int;
  mutable draining : bool;
  mutable shed : bool;
  mutable muts_since_snapshot : int;
  mutable snapshots : int;
  recovered : int;
  config : config;
  dedup : (string * int, Protocol.response) Hashtbl.t;
  dedup_fifo : (string * int) Queue.t;
  notices : Online.Service.notice Queue.t;
}

let now t = Online.Service.live_now t.lv
let epoch t = Online.Service.live_epoch t.lv
let draining t = t.draining
let shedding t = t.shed
let recovered t = t.recovered
let snapshots_written t = t.snapshots
let live_jobs t = Online.State.live_count (Online.Service.live_state t.lv)

let take_notices t =
  let rec go acc =
    match Queue.take_opt t.notices with
    | None -> List.rev acc
    | Some n -> go (n :: acc)
  in
  go []

(* --- (sid, rid) dedup --------------------------------------------------- *)

let dedup_find t ~sid ~rid = Hashtbl.find_opt t.dedup (sid, rid)

(* Also rebuilds the cache during replay, so a long uncompacted journal
   never yields a cache larger than the live one. *)
let dedup_add dedup fifo key resp =
  if not (Hashtbl.mem dedup key) then begin
    Hashtbl.replace dedup key resp;
    Queue.add key fifo;
    if Queue.length fifo > dedup_cap then Hashtbl.remove dedup (Queue.pop fifo)
  end

(* Session ids are client-chosen strings; hex-encode them into journal
   keys so the [:]-separated key grammar stays unambiguous whatever the
   sid contains.  "-" marks "no sid" (no dedup entry on replay). *)
let hex_of_sid = function
  | None -> "-"
  | Some s ->
    let b = Buffer.create (2 * String.length s) in
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents b

let sid_of_hex h =
  if h = "-" then None
  else if String.length h mod 2 <> 0 then None
  else
    let n = String.length h / 2 in
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | _ -> None
    in
    let rec go i acc =
      if i = n then Some (Buffer.contents acc)
      else
        match (digit h.[2 * i], digit h.[(2 * i) + 1]) with
        | Some hi, Some lo ->
          Buffer.add_char acc (Char.chr ((hi lsl 4) lor lo));
          go (i + 1) acc
        | _ -> None
    in
    go 0 (Buffer.create n)

(* --- journal replay ----------------------------------------------------- *)

let app_of_spec (a : app_spec) =
  match
    Model.App.make ~name:a.name ~s:a.s ~footprint:a.footprint ~c0:a.c0 ~w:a.w
      ~f:a.f ~m0:a.m0 ()
  with
  | app -> Ok app
  | exception Invalid_argument m -> Error (Bad_request, m)

let completed_of lv = (Online.Service.live_report lv).Online.Service.metrics.completed

(* Every journal key is [verb:<seq>:...]; an unparseable second field
   means a foreign/corrupt key, reported as [None] so callers treat the
   entry conservatively. *)
let seq_of_key key =
  match String.split_on_char ':' key with
  | _ :: seq :: _ -> int_of_string_opt seq
  | _ -> None

(* One journal entry per state mutation, keyed
   [verb:<seq>:<sidhex>:<rid>...] so the journal's first-write-wins
   dedup never collides and a replay can rebuild the idempotency cache.
   Replaying the surviving entries oldest-first through the same live
   core reproduces the exact pre-crash job set: completions are
   deterministic functions of the submit/cancel/advance/drain timeline.
   [record_dedup] receives the response each replayed mutation would
   have produced — recomputed, and equal to the original because the
   core is deterministic. *)
let replay_entry lv ~record_dedup (e : Campaign.Journal.entry) =
  let with_dedup sidhex rid_s reply =
    match (sid_of_hex sidhex, int_of_string_opt rid_s) with
    | Some sid, Some rid ->
      record_dedup ~sid ~rid
        { rid; epoch = Online.Service.live_epoch lv; reply }
    | _ -> ()
  in
  match String.split_on_char ':' e.key with
  | "submit" :: seq :: sidhex :: rid_s :: name_rest -> (
    match e.values with
    | [| at; w; s; f; m0; c0; footprint |] -> (
      let name = String.concat ":" name_rest in
      match Model.App.make ~name ~s ~footprint ~c0 ~w ~f ~m0 () with
      | app ->
        let job = Online.Service.submit lv ~at app in
        with_dedup sidhex rid_s (R_submitted { job = Online.State.id job });
        int_of_string_opt seq
      | exception Invalid_argument _ -> None)
    | _ -> None)
  | [ "cancel"; seq; sidhex; rid_s ] -> (
    match e.values with
    | [| at; id |] ->
      let id = int_of_float id in
      let was_live = Online.Service.cancel lv ~at ~id in
      with_dedup sidhex rid_s (R_cancelled { job = id; was_live });
      int_of_string_opt seq
    | _ -> None)
  | [ "advance"; seq ] -> (
    match e.values with
    | [| at |] ->
      Online.Service.advance lv ~to_:at;
      int_of_string_opt seq
    | _ -> None)
  | [ "drain"; seq; sidhex; rid_s ] ->
    let before = completed_of lv in
    Online.Service.drain lv;
    with_dedup sidhex rid_s
      (R_drained
         { time = Online.Service.live_now lv; completed = completed_of lv - before });
    int_of_string_opt seq
  | _ -> None

let create (config : config) =
  if config.snapshot <> None && config.journal = None then
    invalid_arg "Backend.create: snapshotting requires a journal";
  if config.snapshot_keep < 1 then
    invalid_arg "Backend.create: snapshot_keep must be >= 1";
  if config.shed_highwater > 0 && config.shed_lowwater > config.shed_highwater
  then invalid_arg "Backend.create: shed_lowwater must be <= shed_highwater";
  (* A checkpoint into a missing directory fails here, before a daemon
     binds its socket, not at the first checkpoint. *)
  Option.iter
    (fun p ->
      let dir = Filename.dirname p in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        raise (Sys_error (p ^ ": No such file or directory")))
    config.snapshot;
  let notices = Queue.create () in
  let listener n = Queue.add n notices in
  let dedup = Hashtbl.create 256 in
  let dedup_fifo = Queue.create () in
  let record_dedup ~sid ~rid resp = dedup_add dedup dedup_fifo (sid, rid) resp in
  let fresh () =
    Online.Service.live_create ~config:config.service ~listener
      ~platform:config.platform ()
  in
  let lv, journal, recovered, seq =
    match config.journal with
    | None -> (fresh (), None, 0, 0)
    | Some path ->
      let j = Campaign.Journal.create ~path in
      (* Recovery prefers the newest valid snapshot generation: restore
         the live core from it and replay only the journal entries at or
         past its sequence watermark — O(live jobs + post-snapshot
         events) instead of O(history).  An invalid generation is
         quarantined by [load_generations], which falls back to the next
         older one; with every generation gone, full replay rebuilds the
         state (the journal retains entries back to the oldest kept
         generation's watermark, so nothing is lost).  Sequence numbers
         start at 0, so without a snapshot the watermark skips nothing. *)
      let lv, watermark =
        match
          Option.map
            (fun p ->
              Snapshot.load_generations ~path:p ~keep:config.snapshot_keep)
            config.snapshot
        with
        | Some (Some (s, _gen)) ->
          let lv =
            Online.Service.live_restore ~config:config.service ~listener
              ~platform:config.platform s.Snapshot.persist
          in
          List.iter
            (fun (sid, rid, resp) -> record_dedup ~sid ~rid resp)
            s.Snapshot.dedup;
          (lv, s.Snapshot.seq)
        | _ -> (fresh (), 0)
      in
      let applied = ref 0 and max_seq = ref (watermark - 1) in
      List.iter
        (fun (e : Campaign.Journal.entry) ->
          (* Entries below the restored watermark are already folded into
             the snapshot; applying them again would double-execute, so
             they are skipped before touching the core.  (They are only
             on disk at all to serve OLDER generations as fallbacks.) *)
          match seq_of_key e.key with
          | Some s when s < watermark -> ()
          | _ -> (
            match replay_entry lv ~record_dedup e with
            | Some s ->
              incr applied;
              max_seq := max !max_seq s
            | None -> ()))
        (Campaign.Journal.entries j);
      (lv, Some j, !applied, max 0 (!max_seq + 1))
  in
  (* Replay fires listener notices for pre-crash completions; nobody is
     subscribed yet, so drop them. *)
  Queue.clear notices;
  {
    lv;
    journal;
    snapshot_path = config.snapshot;
    snapshot_every = config.snapshot_every;
    seq;
    draining = false;
    shed = false;
    muts_since_snapshot = 0;
    snapshots = 0;
    recovered;
    config;
    dedup;
    dedup_fifo;
    notices;
  }

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

(* --- snapshot + compaction ---------------------------------------------- *)

let snapshot_now t =
  match (t.journal, t.snapshot_path) with
  | Some j, Some path -> (
    (* [dedup_add] keeps the FIFO's keys and the table's equal. *)
    let dedup =
      Queue.fold
        (fun acc ((sid, rid) as key) -> (sid, rid, Hashtbl.find t.dedup key) :: acc)
        [] t.dedup_fifo
      |> List.rev
    in
    let s =
      {
        Snapshot.seq = t.seq;
        persist = Online.Service.live_persist t.lv;
        dedup;
      }
    in
    let keep = t.config.snapshot_keep in
    let failed m =
      if Obs.Probe.on () then Obs.Metrics.incr m_snapshot_failures;
      Error m
    in
    (* An I/O error (say, the snapshot directory removed under a running
       daemon) fails this checkpoint, not the request that triggered it:
       the journal still holds the full history, and a failed publish
       never rotates it. *)
    match Snapshot.write ~path ~keep s with
    | exception Sys_error m -> failed m
    | Error m -> failed m
    | Ok () -> (
      (* Every entry journalled so far is folded into the (validated)
         new generation 0.  Each generation k >= 1 still on disk was
         generation k-1 before the write, so after the rotation
         segments 0..k hold its tail: keep the segments up to the oldest
         generation left.  A lone generation empties the journal. *)
      let rec oldest k =
        if k > 0 && not (Sys.file_exists (Snapshot.generation_path path k))
        then oldest (k - 1)
        else k
      in
      match Campaign.Journal.rotate j ~keep:(oldest (keep - 1) + 1) with
      | exception Sys_error m -> failed m
      | () ->
        t.muts_since_snapshot <- 0;
        t.snapshots <- t.snapshots + 1;
        if Obs.Probe.on () then Obs.Metrics.incr m_snapshots;
        Ok ()))
  | _ -> Error "snapshotting is not configured"

let journal_entry t key values =
  match t.journal with
  | None -> ()
  | Some j ->
    Campaign.Journal.append j { trial = 0; key; values };
    t.muts_since_snapshot <- t.muts_since_snapshot + 1

(* Checked at the END of [handle], never at journal-write time: the
   journal entry is written ahead of the mutation, so a snapshot taken
   between the two would compact away a record whose effect it does not
   contain. *)
let maybe_snapshot t =
  if
    t.snapshot_path <> None && t.journal <> None && t.snapshot_every > 0
    && t.muts_since_snapshot >= t.snapshot_every
  then ignore (snapshot_now t : (unit, string) result)

(* --- load shedding ------------------------------------------------------ *)

(* Hysteresis: enter shed mode at the high-water mark, leave it at the
   low-water mark, so a backlog hovering at the boundary does not flap
   between accepting and rejecting on every completion. *)
let update_shed t =
  if t.config.shed_highwater > 0 then begin
    let live = live_jobs t in
    if t.shed then begin
      if live <= t.config.shed_lowwater then t.shed <- false
    end
    else if live >= t.config.shed_highwater then t.shed <- true
  end

(* --- request handling --------------------------------------------------- *)

let view_of_job (j : Online.State.job) : job_view =
  let finish = Online.State.finish j in
  let state =
    if Online.State.cancelled j then Cancelled
    else if finish <> None then Done
    else if Online.State.procs j > 0. then Running
    else Queued
  in
  {
    job = Online.State.id j;
    state;
    procs = Online.State.procs j;
    cache = Online.State.cache j;
    remaining = Online.State.remaining j;
    arrival = Online.State.arrival j;
    finish;
  }

let drain_all t ~journal:write_entry ~sid ~rid =
  t.draining <- true;
  let started_at = now t in
  let completed =
    match
      let continuing = ref true in
      while !continuing do
        Campaign.Watchdog.check ();
        continuing := Online.Service.drain_step t.lv
      done
    with
    | () -> true
    | exception Campaign.Watchdog.Timeout _ -> false
  in
  (* Journal only after the outcome is known: replay runs an unbounded
     full drain, so a record written ahead of a watchdog-interrupted
     drain would recover more state than the pre-crash daemon had (and
     cache a successful R_drained for a request that was answered with
     Timeout).  A completed drain is replay-deterministic from the
     timeline; a partial one is exactly a time advance to wherever the
     watchdog stopped it. *)
  if write_entry then begin
    if completed then
      journal_entry t
        (Printf.sprintf "drain:%d:%s:%d" (next_seq t) (hex_of_sid sid)
           (Option.value ~default:(-1) rid))
        [| started_at |]
    else if now t > started_at then
      journal_entry t (Printf.sprintf "advance:%d" (next_seq t)) [| now t |]
  end;
  completed

let shutdown_drain t = drain_all t ~journal:true ~sid:None ~rid:None

let handle t ~clients (req : request) =
  match
    Option.bind req.sid (fun sid -> dedup_find t ~sid ~rid:req.rid)
  with
  | Some cached ->
    (* A retried mutation: the first execution's response, replayed
       verbatim (same rid, same epoch) with no state change — retries
       are exactly-once against the journal. *)
    if Obs.Probe.on () then Obs.Metrics.incr m_dedup_hits;
    cached
  | None ->
    let t_eff =
      match req.at with None -> now t | Some at -> Float.max at (now t)
    in
    (* Pure time advances must reach the journal too, or a replay would
       miss completions the pre-crash daemon already swept. *)
    let advance_to_eff () =
      if t_eff > now t then begin
        journal_entry t (Printf.sprintf "advance:%d" (next_seq t)) [| t_eff |];
        Online.Service.advance t.lv ~to_:t_eff
      end
    in
    update_shed t;
    let cacheable = ref false in
    let dispatch () =
      match req.verb with
      | Submit spec ->
        if t.draining then
          R_error
            {
              code = Draining;
              message = "daemon is draining; submissions refused";
              retry_after = None;
            }
        else if live_jobs t >= t.config.queue_depth then
          R_error
            {
              code = Overload;
              message =
                Printf.sprintf "queue depth %d reached; retry after completions"
                  t.config.queue_depth;
              retry_after = Some t.config.shed_retry_after;
            }
        else if t.shed then begin
          if Obs.Probe.on () then Obs.Metrics.incr m_shed;
          R_error
            {
              code = Overload;
              message =
                Printf.sprintf
                  "load shedding: %d live jobs past high-water mark %d; \
                   queries and cancels are still served"
                  (live_jobs t) t.config.shed_highwater;
              retry_after = Some t.config.shed_retry_after;
            }
        end
        else (
          match app_of_spec spec with
          | Error (code, message) -> R_error { code; message; retry_after = None }
          | Ok app ->
            cacheable := true;
            journal_entry t
              (Printf.sprintf "submit:%d:%s:%d:%s" (next_seq t)
                 (hex_of_sid req.sid) req.rid spec.name)
              [| t_eff; spec.w; spec.s; spec.f; spec.m0; spec.c0; spec.footprint |];
            let job = Online.Service.submit t.lv ~at:t_eff app in
            R_submitted { job = Online.State.id job })
      | Cancel id -> (
        match Online.Service.find_job t.lv id with
        | None ->
          R_error
            {
              code = Unknown_job;
              message = Printf.sprintf "no job with id %d" id;
              retry_after = None;
            }
        | Some _ ->
          cacheable := true;
          journal_entry t
            (Printf.sprintf "cancel:%d:%s:%d" (next_seq t) (hex_of_sid req.sid)
               req.rid)
            [| t_eff; float_of_int id |];
          let was_live = Online.Service.cancel t.lv ~at:t_eff ~id in
          R_cancelled { job = id; was_live })
      | Query q -> (
        advance_to_eff ();
        let state = Online.Service.live_state t.lv in
        match q with
        | Stats ->
          let report = Online.Service.live_report t.lv in
          R_stats { time = now t; clients; metrics = report.metrics }
        | Status ->
          update_shed t;
          R_status
            {
              time = now t;
              live = live_jobs t;
              queued = Online.State.queued state;
              running = Online.State.running state;
              clients;
              draining = t.draining;
              recovered = t.recovered;
              shed = t.shed;
              snapshots = t.snapshots;
            }
        | Allocs ->
          R_allocs
            {
              time = now t;
              k = Online.Service.last_makespan t.lv;
              jobs = Array.map view_of_job (Online.State.live state);
            }
        | Job id -> (
          match Online.Service.find_job t.lv id with
          | Some j -> R_job (view_of_job j)
          | None ->
            R_error
              {
                code = Unknown_job;
                message = Printf.sprintf "no job with id %d" id;
                retry_after = None;
              }))
      | Subscribe on ->
        (* The per-connection flag itself lives in the daemon's session;
           the backend only validates and acknowledges. *)
        R_subscribed { on }
      | Drain ->
        (* [at] is ignored: a drain always runs from the current model
           time to completion of every live job. *)
        let before = completed_of t.lv in
        if drain_all t ~journal:true ~sid:req.sid ~rid:(Some req.rid) then begin
          cacheable := true;
          R_drained { time = now t; completed = completed_of t.lv - before }
        end
        else
          R_error
            {
              code = Timeout;
              message = "drain deadline elapsed before all jobs completed";
              retry_after = None;
            }
      | Ping ->
        advance_to_eff ();
        R_pong
    in
    let reply =
      match dispatch () with
      | reply -> reply
      | exception Sys_error m ->
        (* Every mutation is journalled before it is applied, so a
           journal write that raises (the journal's directory removed,
           the disk full) leaves the core untouched: refuse the request
           rather than let the error end the daemon.  A drain is the
           exception: its entry follows the drain, which has run. *)
        cacheable := false;
        if Obs.Probe.on () then Obs.Metrics.incr m_journal_failures;
        R_error
          {
            code = Internal;
            message = "journal write failed: " ^ m;
            retry_after = None;
          }
    in
    update_shed t;
    let resp = { rid = req.rid; epoch = epoch t; reply } in
    (* Cache successful mutations only: an error reply made no state
       change, so re-executing the retry is safe — and caching an
       [Overload] would wrongly pin a client to rejection after the
       backlog clears. *)
    (match req.sid with
    | Some sid when !cacheable -> dedup_add t.dedup t.dedup_fifo (sid, req.rid) resp
    | _ -> ());
    maybe_snapshot t;
    resp
