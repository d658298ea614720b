(* Chaos smoke for the serving stack, against a real forked daemon on a
   temp Unix socket.

   Phase 1 drives the same workload through the daemon twice: once over
   a clean wire, then under several seeded Chaos storms through the
   retrying client (duplicated, reordered, truncated and killed frames;
   stalled and killed reads).  Every storm run must converge to the
   byte-identical allocation payload and drain count of a directly
   driven backend — and the backend itself is held equal to the offline
   Online.Service by the test_serve equivalence property, closing the
   chain wire+chaos+retries == offline service.

   Phase 2 runs a daemon with snapshotting enabled, SIGKILLs it after
   two checkpoints have rotated the journal into two segments, and
   requires the restarted daemon to expose the exact pre-crash job set
   from snapshot + short replay over both segments.

   Part of `dune runtest`; runnable alone as `dune build @chaos`. *)

open Serve

let dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cosched_chaos_smoke_%d" (Unix.getpid ()))

let socket = Filename.concat dir "daemon.sock"
let journal = Filename.concat dir "journal.jsonl"
let snapshot = Filename.concat dir "state.snap"

let fail fmt = Printf.ksprintf failwith fmt

let snapshot_every = 3

let clean_state () =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (socket :: (snapshot ^ ".tmp")
    :: List.concat_map
         (fun k ->
           let seg = Campaign.Journal.segment_path journal k
           and gen = Snapshot.generation_path snapshot k in
           [
             seg;
             Campaign.Journal.quarantine_path seg;
             gen;
             Snapshot.quarantine_path gen;
           ])
         [ 0; 1; 2 ])

let daemon_config ?snapshot_path () =
  {
    Daemon.backend =
      {
        Backend.default_config with
        journal = Some journal;
        snapshot = snapshot_path;
        snapshot_every = (if snapshot_path = None then 0 else snapshot_every);
      };
    socket;
    port = None;
    max_clients = 8;
    drain_timeout = Some 120.;
    client_timeout = 30.;
    request_deadline = Some 30.;
    idle_timeout = None;
    max_buffer = Session.default_max_out;
  }

let start_daemon ?snapshot_path () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       Daemon.run (daemon_config ?snapshot_path ());
       Stdlib.exit 0
     with e ->
       Printf.eprintf "daemon died: %s\n%!" (Printexc.to_string e);
       Stdlib.exit 1)
  | pid -> pid

let wait_exit pid what =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> fail "%s daemon did not exit cleanly" what

let apps =
  Model.Workload.generate ~rng:(Util.Rng.create 5) Model.Workload.NpbSynth 6

let spec_of_app (a : Model.App.t) =
  {
    Protocol.name = a.name;
    w = a.w;
    s = a.s;
    f = a.f;
    m0 = a.m0;
    c0 = a.c0;
    footprint = a.footprint;
  }

(* The workload: six submits, two cancels, all at fixed model times, so
   every run — direct, clean wire, or storm — sees the same timeline. *)
let ops =
  List.concat
    [
      List.mapi
        (fun i a -> (2. *. float_of_int i, Protocol.Submit (spec_of_app a)))
        (Array.to_list apps);
      [ (11., Protocol.Cancel 1); (12.5, Protocol.Cancel 4) ];
    ]

let normalized (r : Protocol.response) =
  Protocol.encode_response { r with rid = 0 }

(* Reference: the same ops pushed straight into an in-process backend. *)
let reference () =
  let b = Backend.create Backend.default_config in
  let handle ?at verb =
    Backend.handle b ~clients:1 { Protocol.rid = 0; sid = None; at; verb }
  in
  List.iter
    (fun (at, verb) ->
      match (handle ~at verb).Protocol.reply with
      | Protocol.R_submitted _ | Protocol.R_cancelled _ -> ()
      | _ -> fail "reference op failed")
    ops;
  let allocs = normalized (handle Protocol.(Query Allocs)) in
  let completed =
    match (handle Protocol.Drain).Protocol.reply with
    | Protocol.R_drained { completed; _ } -> completed
    | _ -> fail "reference drain failed"
  in
  (allocs, completed)

(* One wire run: fresh daemon, retrying client, optional chaos storm. *)
let wire_run ~sid ?chaos () =
  clean_state ();
  let pid = start_daemon () in
  let c = Retry_client.create ?chaos ~sid ~seed:99 (Unix.ADDR_UNIX socket) in
  let request ?at verb =
    match (Retry_client.request c ?at verb).Protocol.reply with
    | Protocol.R_error { message; code; _ } ->
      fail "request failed: %s (%s)" (Protocol.error_code_name code) message
    | reply -> reply
  in
  List.iter
    (fun (at, verb) ->
      match request ~at verb with
      | Protocol.R_submitted _ | Protocol.R_cancelled _ -> ()
      | _ -> fail "wire op failed")
    ops;
  let allocs =
    normalized (Retry_client.request c Protocol.(Query Allocs))
  in
  let completed =
    match request Protocol.Drain with
    | Protocol.R_drained { completed; _ } -> completed
    | _ -> fail "wire drain failed"
  in
  wait_exit pid "drained";
  let stats = (Retry_client.retries c, Retry_client.reconnects c) in
  Retry_client.close c;
  (allocs, completed, stats)

let () =
  Printexc.record_backtrace true;
  ignore (Unix.alarm 600);
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());

  (* --- phase 1: storm convergence -------------------------------------- *)
  let ref_allocs, ref_completed = reference () in
  let clean_allocs, clean_completed, _ = wire_run ~sid:"clean" () in
  if clean_allocs <> ref_allocs then
    fail "clean wire diverged from the direct backend:\n wire %s\n ref  %s"
      clean_allocs ref_allocs;
  if clean_completed <> ref_completed then
    fail "clean wire drained %d jobs, direct backend %d" clean_completed
      ref_completed;
  print_endline "chaos smoke: clean wire matches the direct backend";

  let total_faults = ref 0 in
  List.iter
    (fun seed ->
      let chaos = Chaos.storm ~seed in
      let allocs, completed, (retries, reconnects) =
        wire_run ~sid:(Printf.sprintf "storm-%d" seed) ~chaos ()
      in
      total_faults := !total_faults + Chaos.injected chaos;
      if allocs <> ref_allocs then
        fail
          "storm seed %d diverged (%d faults, %d retries, %d connections):\n\
          \ storm %s\n\
          \ ref   %s"
          seed (Chaos.injected chaos) retries reconnects allocs ref_allocs;
      if completed <> ref_completed then
        fail "storm seed %d drained %d jobs, expected %d" seed completed
          ref_completed;
      Printf.printf
        "chaos smoke: storm seed %d converged (%d faults injected, %d \
         retries, %d connections)\n\
         %!"
        seed (Chaos.injected chaos) retries reconnects)
    [ 1; 2; 3 ];
  if !total_faults = 0 then
    fail "the storm schedules injected no faults at all; chaos is inert";

  (* --- phase 2: SIGKILL under snapshot compaction ----------------------- *)
  clean_state ();
  let pid = start_daemon ~snapshot_path:snapshot () in
  let c = Client.connect socket in
  let expect_ok what (r : Protocol.response) =
    match r.reply with
    | Protocol.R_error { message; code; _ } ->
      fail "%s failed: %s (%s)" what (Protocol.error_code_name code) message
    | reply -> reply
  in
  Array.iteri
    (fun i a ->
      match
        expect_ok "submit"
          (Client.request c
             ~at:(2. *. float_of_int i)
             (Protocol.Submit (spec_of_app a)))
      with
      | Protocol.R_submitted _ -> ()
      | _ -> fail "expected submitted")
    apps;
  (match expect_ok "cancel" (Client.request c ~at:11. (Protocol.Cancel 1)) with
  | Protocol.R_cancelled _ -> ()
  | _ -> fail "expected cancelled");
  (* 7 mutations at snapshot_every = 3: two checkpoints have rotated
     the journal by now, so recovery reads a two-segment journal. *)
  (match expect_ok "status" (Client.request c Protocol.(Query Status)) with
  | Protocol.R_status { snapshots; _ } when snapshots >= 2 -> ()
  | Protocol.R_status { snapshots; _ } ->
    fail "expected >= 2 snapshots before the kill, saw %d" snapshots
  | _ -> fail "expected status");
  if not (Sys.file_exists (Campaign.Journal.segment_path journal 1)) then
    fail "no journal segment 1 after two checkpoints";
  let before = normalized (Client.request c Protocol.(Query Allocs)) in
  Unix.kill pid Sys.sigkill;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, _ -> fail "unexpected daemon exit under SIGKILL");
  Client.close c;
  print_endline "chaos smoke: killed snapshotting daemon mid-stream";

  let pid = start_daemon ~snapshot_path:snapshot () in
  let c = Client.connect socket in
  (match expect_ok "status" (Client.request c Protocol.(Query Status)) with
  | Protocol.R_status { recovered; _ } when recovered <= snapshot_every -> ()
  | Protocol.R_status { recovered; _ } ->
    fail "snapshot recovery replayed %d entries, expected <= snapshot_every"
      recovered
  | _ -> fail "expected status");
  let after = normalized (Client.request c Protocol.(Query Allocs)) in
  if before <> after then
    fail "snapshot recovery diverged:\n pre-kill  %s\n post-kill %s" before
      after;
  (match expect_ok "drain" (Client.request c Protocol.Drain) with
  | Protocol.R_drained _ -> ()
  | _ -> fail "expected drained");
  wait_exit pid "drained";
  Client.close c;
  print_endline
    "chaos smoke: snapshot + short replay restored the exact job set";

  clean_state ();
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  print_endline "chaos smoke OK"
