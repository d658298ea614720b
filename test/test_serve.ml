(* Tests for the serving subsystem: the pure frame/JSON codec (round
   trips and adversarial inputs), the request-handling backend, its
   crash-safe journal recovery, and the load-bearing equivalence: a
   backend fed an event stream request-by-request produces bit-identical
   service metrics to an offline Online.Service.run of the same
   stream. *)

open Serve

let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t
let platform = Model.Platform.paper_default

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let req ?sid ?(rid = 0) ?at verb = { Protocol.rid; sid; at; verb }

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

(* --- Frame ------------------------------------------------------------- *)

let frame_roundtrip () =
  let d = Frame.decoder () in
  Frame.feed d (Frame.encode "hello" ^ Frame.encode "");
  Alcotest.(check string)
    "first" "hello"
    (match Frame.next d with `Frame p -> p | _ -> Alcotest.fail "no frame");
  Alcotest.(check string)
    "empty payload" ""
    (match Frame.next d with `Frame p -> p | _ -> Alcotest.fail "no frame");
  Alcotest.(check bool)
    "await" true
    (match Frame.next d with `Await -> true | _ -> false)

let frame_byte_by_byte () =
  let wire = Frame.encode "payload with\nnewline and \x00 byte" in
  let d = Frame.decoder () in
  let got = ref None in
  String.iter
    (fun c ->
      Frame.feed d (String.make 1 c);
      match Frame.next d with
      | `Frame p -> got := Some p
      | `Await -> ()
      | `Error m -> Alcotest.fail ("unexpected framing error: " ^ m))
    wire;
  Alcotest.(check (option string))
    "reassembled" (Some "payload with\nnewline and \x00 byte") !got

let frame_truncated_header_awaits () =
  (* A partial length prefix is just incomplete input, not an error. *)
  let d = Frame.decoder () in
  Frame.feed d "12";
  Alcotest.(check bool)
    "await" true
    (match Frame.next d with `Await -> true | _ -> false);
  Frame.feed d "\nx";
  Alcotest.(check bool)
    "still await: 12-byte payload incomplete" true
    (match Frame.next d with `Await -> true | _ -> false)

let frame_bad_header_is_error () =
  List.iter
    (fun header ->
      let d = Frame.decoder () in
      Frame.feed d (header ^ "\npayload\n");
      match Frame.next d with
      | `Error _ -> ()
      | `Frame _ | `Await ->
        Alcotest.fail (Printf.sprintf "header %S accepted" header))
    (* The 19-digit value passes the digit-count check but overflows
       max_int: it must die as a framing error, not raise through the
       daemon. *)
    [ ""; "abc"; "-3"; "07"; "3x"; "9999999999999999999";
      "99999999999999999999999" ]

let frame_oversized_is_error () =
  let d = Frame.decoder ~max_frame:16 () in
  Frame.feed d (Frame.encode (String.make 17 'a'));
  (match Frame.next d with
  | `Error m ->
    Alcotest.(check bool) "mentions limit" true (String.length m > 0)
  | _ -> Alcotest.fail "oversized frame accepted");
  (* The error is sticky. *)
  Frame.feed d (Frame.encode "ok");
  Alcotest.(check bool)
    "sticky" true
    (match Frame.next d with `Error _ -> true | _ -> false)

let frame_missing_trailer_is_error () =
  let d = Frame.decoder () in
  Frame.feed d "2\nabX";
  Alcotest.(check bool)
    "error" true
    (match Frame.next d with `Error _ -> true | _ -> false)

let frame_header_flood_is_error () =
  (* A stream that never produces a newline must not buffer forever. *)
  let d = Frame.decoder () in
  Frame.feed d (String.make 64 '1');
  Alcotest.(check bool)
    "error" true
    (match Frame.next d with `Error _ -> true | _ -> false)

let gen_payloads =
  QCheck.Gen.(list_size (int_range 1 8) (string_size (int_range 0 64)))

let qcheck_frame_chunked_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frames survive arbitrary chunking"
    (QCheck.make
       QCheck.Gen.(pair gen_payloads (int_range 1 7))
       ~print:(fun (ps, k) ->
         Printf.sprintf "%d payloads, chunk %d" (List.length ps) k))
    (fun (payloads, chunk) ->
      let wire = String.concat "" (List.map Frame.encode payloads) in
      let d = Frame.decoder () in
      let out = ref [] in
      let pull () =
        let continue = ref true in
        while !continue do
          match Frame.next d with
          | `Frame p -> out := p :: !out
          | `Await -> continue := false
          | `Error m -> failwith m
        done
      in
      let pos = ref 0 in
      while !pos < String.length wire do
        let n = min chunk (String.length wire - !pos) in
        Frame.feed d (String.sub wire !pos n);
        pos := !pos + n;
        pull ()
      done;
      List.rev !out = payloads)

(* --- Protocol round trips ---------------------------------------------- *)

(* Names mix printable text with every control character, so the round
   trips cover each escape the one JSON string escaper emits. *)
let gen_name =
  QCheck.Gen.(
    string_size (int_range 0 12)
      ~gen:(frequency [ (4, printable); (1, map Char.chr (int_range 0 31)) ]))

let gen_app_spec =
  QCheck.Gen.(
    let* name = gen_name in
    let* w = float_range 1. 1e13 in
    let* s = float_range 0. 0.99 in
    let* f = float_range 0. 2. in
    let* m0 = float_range 0. 1. in
    let* c0 = float_range 1e3 1e9 in
    let* footprint = oneof [ return infinity; float_range 1e3 1e12 ] in
    return { Protocol.name; w; s; f; m0; c0; footprint })

let gen_verb =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Protocol.Submit a) gen_app_spec;
        map (fun id -> Protocol.Cancel id) (int_bound 1000);
        oneofl
          Protocol.[ Query Stats; Query Status; Query Allocs; Drain; Ping ];
        map (fun id -> Protocol.Query (Job id)) (int_bound 1000);
        map (fun on -> Protocol.Subscribe on) bool;
      ])

let gen_request =
  QCheck.Gen.(
    let* rid = int_bound 1_000_000 in
    let* sid = opt gen_name in
    let* at = opt (float_range 0. 1e9) in
    let* verb = gen_verb in
    return { Protocol.rid; sid; at; verb })

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode round trip"
    (QCheck.make gen_request ~print:Protocol.encode_request)
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> r = r'
      | Error (_, m) -> QCheck.Test.fail_reportf "decode failed: %s" m)

let gen_job_view =
  QCheck.Gen.(
    let* job = int_bound 1000 in
    let* state =
      oneofl Protocol.[ Queued; Running; Done; Cancelled ]
    in
    let* procs = float_range 0. 256. in
    let* cache = float_range 0. 1. in
    let* remaining = float_range 0. 1. in
    let* arrival = float_range 0. 1e6 in
    let* finish = opt (float_range 0. 1e9) in
    return { Protocol.job; state; procs; cache; remaining; arrival; finish })

let gen_metrics =
  QCheck.Gen.(
    let* counts = array_size (return 11) (int_bound 10_000) in
    let* floats = array_size (return 6) (float_range 0. 1e6) in
    return
      {
        Online.Metrics.jobs = counts.(0);
        completed = counts.(1);
        cancelled = counts.(2);
        events = counts.(3);
        resolves = counts.(4);
        forced_resolves = counts.(5);
        migrations = counts.(6);
        solver_iters = counts.(7);
        partition_ops = counts.(8);
        warm_hits = counts.(9);
        cold_fallbacks = counts.(10);
        makespan = floats.(0);
        mean_response = floats.(1);
        max_response = floats.(2);
        mean_stretch = floats.(3);
        max_stretch = floats.(4);
        utilization = floats.(5);
      })

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        map (fun job -> Protocol.R_submitted { job }) (int_bound 1000);
        map2
          (fun job was_live -> Protocol.R_cancelled { job; was_live })
          (int_bound 1000) bool;
        map (fun j -> Protocol.R_job j) gen_job_view;
        map2
          (fun m clients ->
            Protocol.R_stats { time = 1.5; clients; metrics = m })
          gen_metrics (int_bound 64);
        map2
          (fun counts (draining, shed) ->
            Protocol.R_status
              {
                time = 2.5;
                live = counts mod 7;
                queued = counts mod 5;
                running = counts mod 3;
                clients = counts mod 11;
                draining;
                recovered = counts mod 13;
                shed;
                snapshots = counts mod 17;
              })
          (int_bound 10_000) (pair bool bool);
        map2
          (fun k jobs -> Protocol.R_allocs { time = 3.5; k; jobs })
          (opt (float_range 0. 1e9))
          (array_size (int_range 0 5) gen_job_view);
        map (fun on -> Protocol.R_subscribed { on }) bool;
        map
          (fun completed -> Protocol.R_drained { time = 4.5; completed })
          (int_bound 1000);
        return Protocol.R_pong;
        map3
          (fun code message retry_after ->
            Protocol.R_error { code; message; retry_after })
          (oneofl
             Protocol.
               [
                 Bad_request; Unknown_verb; Unsupported_version; Overload;
                 Draining; Unknown_job; Timeout; Internal;
               ])
          gen_name
          (opt (float_range 0. 60.));
      ])

let gen_incoming =
  QCheck.Gen.(
    oneof
      [
        (let* rid = int_bound 1_000_000 in
         let* epoch = int_bound 1_000 in
         let* reply = gen_reply in
         return (Protocol.Reply { rid; epoch; reply }));
        map
          (fun (epoch, k) -> Protocol.Event (P_resolved { time = 1.; epoch; k }))
          (pair (int_bound 1000) (float_range 0. 1e9));
        map
          (fun job -> Protocol.Event (P_completed { time = 2.; job }))
          (int_bound 1000);
        return (Protocol.Event (P_drained { time = 3. }));
      ])

let encode_incoming = function
  | Protocol.Reply r -> Protocol.encode_response r
  | Protocol.Event p -> Protocol.encode_push p

let qcheck_incoming_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response/push encode/decode round trip"
    (QCheck.make gen_incoming ~print:encode_incoming)
    (fun i ->
      match Protocol.decode_incoming (encode_incoming i) with
      | Ok i' -> i = i'
      | Error (_, m) -> QCheck.Test.fail_reportf "decode failed: %s" m)

(* --- Protocol adversarial inputs --------------------------------------- *)

let decode_err payload =
  match Protocol.decode_request payload with
  | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" payload)
  | Error (code, _) -> code

let code = Alcotest.testable (Fmt.of_to_string Protocol.error_code_name) ( = )

let protocol_rejects_invalid_utf8 () =
  Alcotest.check code "lone continuation byte" Protocol.Bad_request
    (decode_err "{\"v\":1,\"id\":0,\"verb\":\"ping\xBF\"}");
  Alcotest.check code "overlong encoding" Protocol.Bad_request
    (decode_err "{\"v\":1,\"id\":0,\"verb\":\"\xC0\xAF\"}");
  Alcotest.check code "truncated sequence" Protocol.Bad_request
    (decode_err "{\"v\":1,\"id\":0,\"verb\":\"a\xE2\x82\"}")

let protocol_rejects_malformed_json () =
  Alcotest.check code "garbage" Protocol.Bad_request (decode_err "not json");
  Alcotest.check code "truncated object" Protocol.Bad_request
    (decode_err "{\"v\":1,\"id\":");
  Alcotest.check code "non-object" Protocol.Bad_request (decode_err "[1,2]");
  Alcotest.check code "empty" Protocol.Bad_request (decode_err "")

let protocol_rejects_bad_version () =
  Alcotest.check code "missing v" Protocol.Bad_request
    (decode_err "{\"id\":0,\"verb\":\"ping\"}");
  Alcotest.check code "wrong v" Protocol.Unsupported_version
    (decode_err "{\"v\":2,\"id\":0,\"verb\":\"ping\"}");
  Alcotest.check code "non-numeric v" Protocol.Bad_request
    (decode_err "{\"v\":\"1\",\"id\":0,\"verb\":\"ping\"}")

let protocol_rejects_unknown_verb () =
  Alcotest.check code "unknown verb" Protocol.Unknown_verb
    (decode_err "{\"v\":1,\"id\":0,\"verb\":\"reboot\"}");
  Alcotest.check code "ill-typed id" Protocol.Bad_request
    (decode_err "{\"v\":1,\"id\":\"zero\",\"verb\":\"ping\"}");
  Alcotest.check code "missing app" Protocol.Bad_request
    (decode_err "{\"v\":1,\"id\":0,\"verb\":\"submit\"}")

let qcheck_decode_never_raises =
  QCheck.Test.make ~count:1000 ~name:"decode_request never raises"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match Protocol.decode_request s with Ok _ | Error _ -> true)

(* --- Backend ----------------------------------------------------------- *)

let backend ?journal ?(queue_depth = 1024) () =
  Backend.create { Backend.default_config with platform; queue_depth; journal }

let reply_of (r : Protocol.response) = r.reply

let backend_lifecycle () =
  let b = backend () in
  let apps = synth ~seed:11 3 in
  (match reply_of (Backend.handle b ~clients:1 (req (Submit (spec_of_app apps.(0))))) with
  | R_submitted { job } -> Alcotest.(check int) "first id" 0 job
  | _ -> Alcotest.fail "submit failed");
  (match
     reply_of
       (Backend.handle b ~clients:1 (req ~at:5. (Submit (spec_of_app apps.(1)))))
   with
  | R_submitted { job } -> Alcotest.(check int) "second id" 1 job
  | _ -> Alcotest.fail "submit failed");
  Alcotest.(check int) "two live" 2 (Backend.live_jobs b);
  (match reply_of (Backend.handle b ~clients:1 (req ~at:6. (Cancel 1))) with
  | R_cancelled { was_live; _ } -> Alcotest.(check bool) "was live" true was_live
  | _ -> Alcotest.fail "cancel failed");
  (match reply_of (Backend.handle b ~clients:1 (req (Cancel 7))) with
  | R_error { code = Unknown_job; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-job");
  (match reply_of (Backend.handle b ~clients:1 (req Drain)) with
  | R_drained { completed; _ } -> Alcotest.(check int) "drained" 1 completed
  | _ -> Alcotest.fail "drain failed");
  (* Draining backends refuse new work. *)
  match
    reply_of (Backend.handle b ~clients:1 (req (Submit (spec_of_app apps.(2)))))
  with
  | R_error { code = Draining; _ } -> ()
  | _ -> Alcotest.fail "expected draining refusal"

let backend_backpressure () =
  let b = backend ~queue_depth:2 () in
  let apps = synth ~seed:12 3 in
  let submit i =
    reply_of (Backend.handle b ~clients:1 (req (Submit (spec_of_app apps.(i)))))
  in
  (match (submit 0, submit 1) with
  | R_submitted _, R_submitted _ -> ()
  | _ -> Alcotest.fail "admission failed");
  match submit 2 with
  | R_error { code = Overload; _ } -> ()
  | _ -> Alcotest.fail "expected overload rejection"

let backend_rejects_invalid_app () =
  let b = backend () in
  let bad = { (spec_of_app (synth ~seed:13 1).(0)) with Protocol.s = 1.5 } in
  match reply_of (Backend.handle b ~clients:1 (req (Submit bad))) with
  | R_error { code = Bad_request; _ } -> ()
  | _ -> Alcotest.fail "expected bad-request"

let backend_epoch_monotone () =
  let b = backend () in
  let apps = synth ~seed:14 4 in
  let epochs =
    Array.to_list
      (Array.map
         (fun a ->
           (Backend.handle b ~clients:1 (req (Submit (spec_of_app a)))).epoch)
         apps)
  in
  Alcotest.(check bool)
    "nondecreasing epochs" true
    (List.for_all2 ( <= ) epochs (List.tl epochs @ [ max_int ]));
  Alcotest.(check bool) "epochs advanced" true (List.nth epochs 3 > 0)

let backend_stats_json_has_solver_counters () =
  let b = backend () in
  let apps = synth ~seed:15 3 in
  Array.iter
    (fun a ->
      ignore (Backend.handle b ~clients:1 (req (Submit (spec_of_app a)))))
    apps;
  match reply_of (Backend.handle b ~clients:1 (req (Query Stats))) with
  | R_stats { metrics; _ } ->
    let json = Obs.Trace_json.parse (Online.Metrics.to_json metrics) in
    List.iter
      (fun field ->
        match Obs.Trace_json.member field json with
        | Some (Obs.Trace_json.Num _) -> ()
        | _ -> Alcotest.fail ("stats json missing " ^ field))
      [ "warm_hits"; "cold_fallbacks"; "resolves"; "solver_iters"; "makespan" ];
    Alcotest.(check bool)
      "every-event warm service warm-hits after first solve" true
      (metrics.warm_hits > 0)
  | _ -> Alcotest.fail "stats failed"

(* --- journal crash recovery -------------------------------------------- *)

(* A journal's files: every segment and its quarantine side file. *)
let journal_files path =
  List.concat_map
    (fun k ->
      let seg = Campaign.Journal.segment_path path k in
      [ seg; Campaign.Journal.quarantine_path seg ])
    [ 0; 1; 2; 3 ]

let fresh_journal_path name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (journal_files path);
  path

(* Intact and corrupt lines of every segment of the journal at [path]. *)
let scan_segments path =
  List.map
    (fun seg -> Campaign.Journal.scan ~path:seg)
    (Campaign.Journal.segments ~path)

let allocs_payload b =
  (* rid pinned so recovered and original payloads are comparable
     byte-for-byte: same epoch, same model time, same job views. *)
  Protocol.encode_response (Backend.handle b ~clients:1 (req (Query Allocs)))

let drive_scenario b =
  let apps = synth ~seed:21 4 in
  ignore (Backend.handle b ~clients:1 (req (Submit (spec_of_app apps.(0)))));
  ignore (Backend.handle b ~clients:1 (req ~at:3. (Submit (spec_of_app apps.(1)))));
  ignore (Backend.handle b ~clients:1 (req ~at:7. (Submit (spec_of_app apps.(2)))));
  ignore (Backend.handle b ~clients:1 (req ~at:9. (Cancel 1)));
  ignore (Backend.handle b ~clients:1 (req ~at:11. (Submit (spec_of_app apps.(3)))));
  (* A timestamped ping moves model time without any other mutation —
     the advance must be journalled too. *)
  ignore (Backend.handle b ~clients:1 (req ~at:13. Protocol.Ping))

let backend_journal_recovery () =
  let path = fresh_journal_path "serve_recovery.jsonl" in
  let b1 = backend ~journal:path () in
  drive_scenario b1;
  let before = allocs_payload b1 in
  (* "Crash": drop b1 without any shutdown; the write-ahead journal on
     disk is all that survives. *)
  let b2 = backend ~journal:path () in
  Alcotest.(check int) "entries replayed" 6 (Backend.recovered b2);
  Alcotest.(check bool) "not draining after replay" false (Backend.draining b2);
  Alcotest.(check string) "identical job set and allocations" before
    (allocs_payload b2);
  Sys.remove path

let backend_journal_torn_tail () =
  let path = fresh_journal_path "serve_torn.jsonl" in
  let b1 = backend ~journal:path () in
  drive_scenario b1;
  let before = allocs_payload b1 in
  (* Tear the tail: a half-written submit line, as a crash mid-append
     would leave. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"trial\":0,\"key\":\"submit:99:ghost\",\"values\":[99,1e12";
  close_out oc;
  let b2 = backend ~journal:path () in
  Alcotest.(check int) "intact entries replayed" 6 (Backend.recovered b2);
  Alcotest.(check string) "torn line did not corrupt the job set" before
    (allocs_payload b2);
  Alcotest.(check bool) "torn line quarantined" true
    (Sys.file_exists (Campaign.Journal.quarantine_path path));
  Sys.remove path;
  (try Sys.remove (Campaign.Journal.quarantine_path path) with Sys_error _ -> ())

let backend_post_recovery_mutations_survive () =
  (* Regression: after a journal-only recovery (no snapshot) the
     sequence counter must resume past the replayed history.  It used
     to restart at 0, so the next mutation reused a historical journal
     key and the journal's first-write-wins dedup silently dropped it —
     live but unjournalled, lost on the next crash. *)
  let path = fresh_journal_path "serve_reseq.jsonl" in
  let b1 = backend ~journal:path () in
  drive_scenario b1;
  let b2 = backend ~journal:path () in
  let app = (synth ~seed:22 1).(0) in
  (match
     reply_of (Backend.handle b2 ~clients:1 (req ~at:15. (Submit (spec_of_app app))))
   with
  | R_submitted _ -> ()
  | _ -> Alcotest.fail "post-recovery submit failed");
  let after = allocs_payload b2 in
  let b3 = backend ~journal:path () in
  Alcotest.(check int) "replay includes the post-recovery submit" 7
    (Backend.recovered b3);
  Alcotest.(check string) "post-recovery submit survives the next crash" after
    (allocs_payload b3);
  Sys.remove path

(* --- exactly-once retry dedup ------------------------------------------ *)

let backend_dedup_exactly_once () =
  let b = backend () in
  let apps = synth ~seed:31 2 in
  let submit = req ~sid:"alice" ~rid:7 (Submit (spec_of_app apps.(0))) in
  let first = Backend.handle b ~clients:1 submit in
  let retry = Backend.handle b ~clients:1 submit in
  Alcotest.(check string)
    "retry returns the original response byte-for-byte"
    (Protocol.encode_response first)
    (Protocol.encode_response retry);
  Alcotest.(check int) "no duplicate job" 1 (Backend.live_jobs b);
  (* A different rid under the same sid is a fresh request. *)
  match
    reply_of
      (Backend.handle b ~clients:1
         (req ~sid:"alice" ~rid:8 (Submit (spec_of_app apps.(1)))))
  with
  | R_submitted { job } -> Alcotest.(check int) "next id" 1 job
  | _ -> Alcotest.fail "second submit failed"

let backend_dedup_cancel_retry () =
  let b = backend () in
  let apps = synth ~seed:32 1 in
  ignore
    (Backend.handle b ~clients:1
       (req ~sid:"s" ~rid:0 (Submit (spec_of_app apps.(0)))));
  let cancel = req ~sid:"s" ~rid:1 ~at:2. (Cancel 0) in
  let r1 = Backend.handle b ~clients:1 cancel in
  let r2 = Backend.handle b ~clients:1 cancel in
  (* Without dedup the second cancel would see a dead job; the cache
     must replay the original [was_live = true] answer instead. *)
  (match (reply_of r1, reply_of r2) with
  | R_cancelled { was_live = true; _ }, R_cancelled { was_live = true; _ } -> ()
  | _ -> Alcotest.fail "retried cancel must replay the original reply");
  Alcotest.(check string) "byte-identical"
    (Protocol.encode_response r1)
    (Protocol.encode_response r2)

let backend_dedup_survives_recovery () =
  let path = fresh_journal_path "serve_dedup_recovery.jsonl" in
  let b1 = backend ~journal:path () in
  let apps = synth ~seed:33 1 in
  let submit = req ~sid:"alice" ~rid:3 (Submit (spec_of_app apps.(0))) in
  let orig = Backend.handle b1 ~clients:1 submit in
  (* Crash, recover, retry the same (sid, rid): the dedup cache is
     rebuilt during replay, so the retry still must not double-admit. *)
  let b2 = backend ~journal:path () in
  let retry = Backend.handle b2 ~clients:1 submit in
  Alcotest.(check string) "replayed dedup answers the retry"
    (Protocol.encode_response orig)
    (Protocol.encode_response retry);
  Alcotest.(check int) "still one job" 1 (Backend.live_jobs b2);
  Sys.remove path

(* --- load shedding ------------------------------------------------------ *)

let backend_shed_hysteresis () =
  let b =
    Backend.create
      {
        Backend.default_config with
        platform;
        shed_highwater = 3;
        shed_lowwater = 1;
      }
  in
  let apps = synth ~seed:41 5 in
  let submit i at =
    reply_of
      (Backend.handle b ~clients:1 (req ~at (Submit (spec_of_app apps.(i)))))
  in
  (match (submit 0 0., submit 1 0., submit 2 0.) with
  | R_submitted _, R_submitted _, R_submitted _ -> ()
  | _ -> Alcotest.fail "admission below highwater failed");
  Alcotest.(check bool) "shed at highwater" true (Backend.shedding b);
  (match submit 3 0.5 with
  | R_error { code = Overload; retry_after = Some hint; _ } ->
    Alcotest.(check bool) "positive retry-after hint" true (hint > 0.)
  | _ -> Alcotest.fail "expected overload with a retry-after hint");
  (* Queries and cancels are still served in shed mode. *)
  (match reply_of (Backend.handle b ~clients:1 (req (Query Status))) with
  | R_status { shed = true; live = 3; _ } -> ()
  | _ -> Alcotest.fail "expected shed status with 3 live jobs");
  (match reply_of (Backend.handle b ~clients:1 (req ~at:1. (Cancel 0))) with
  | R_cancelled _ -> ()
  | _ -> Alcotest.fail "cancel refused in shed mode");
  Alcotest.(check bool)
    "hysteresis: still shed above lowwater" true (Backend.shedding b);
  (match reply_of (Backend.handle b ~clients:1 (req ~at:1.5 (Cancel 1))) with
  | R_cancelled _ -> ()
  | _ -> Alcotest.fail "cancel refused in shed mode");
  Alcotest.(check bool) "recovered at lowwater" false (Backend.shedding b);
  match submit 4 2. with
  | R_submitted _ -> ()
  | _ -> Alcotest.fail "submit refused after shed mode ended"

let backend_config_validation () =
  (match
     Backend.create
       { Backend.default_config with platform; snapshot = Some "x.snap" }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshot without a journal accepted");
  match
    Backend.create
      {
        Backend.default_config with
        platform;
        shed_highwater = 2;
        shed_lowwater = 3;
      }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lowwater above highwater accepted"

(* A journal or snapshot into a missing directory fails at create time,
   naming the path, before any request is handled (a daemon creates its
   backend before binding its socket) and without leaving a file. *)
let backend_missing_directory () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cosched-no-such-dir" in
  let journal = fresh_journal_path "missing-dir-ok.jsonl" in
  List.iter
    (fun (what, journal, snapshot) ->
      let path = Option.value snapshot ~default:journal in
      match
        Backend.create
          { Backend.default_config with platform; journal = Some journal; snapshot }
      with
      | exception Sys_error m ->
        Alcotest.(check bool)
          (what ^ " error names the path") true
          (String.starts_with ~prefix:path m)
      | _ -> Alcotest.fail (what ^ " into a missing directory accepted"))
    [
      ("journal", Filename.concat dir "d.jsonl", None);
      ("snapshot", journal, Some (Filename.concat dir "d.snap"));
    ];
  Alcotest.(check bool) "no journal left behind" false (Sys.file_exists journal)

(* --- snapshots and compaction ------------------------------------------- *)

let fresh_snapshot_paths name =
  let j = fresh_journal_path (name ^ ".jsonl") in
  let s = Filename.concat (Filename.get_temp_dir_name ()) (name ^ ".snap") in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (List.concat_map
       (fun k ->
         let g = Snapshot.generation_path s k in
         [ g; Snapshot.quarantine_path g ])
       [ 0; 1; 2; 3 ]
    @ [ s ^ ".tmp" ]);
  (j, s)

let sbackend ?(snapshot_every = 0) ~journal ~snapshot () =
  Backend.create
    {
      Backend.default_config with
      platform;
      journal = Some journal;
      snapshot = Some snapshot;
      snapshot_every;
    }

let cleanup_snapshot_paths j s =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (journal_files j
    @ List.concat_map
        (fun k ->
          let g = Snapshot.generation_path s k in
          [ g; Snapshot.quarantine_path g ])
        [ 0; 1; 2; 3 ])

let backend_snapshot_compacts_journal () =
  let j, s = fresh_snapshot_paths "serve_snap_basic" in
  let b1 = sbackend ~journal:j ~snapshot:s () in
  drive_scenario b1;
  let before = allocs_payload b1 in
  (match Backend.snapshot_now b1 with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("snapshot failed: " ^ m));
  Alcotest.(check int) "one snapshot written" 1 (Backend.snapshots_written b1);
  List.iter
    (fun (entries, corrupt) ->
      Alcotest.(check int) "journal compacted to empty" 0 (List.length entries);
      Alcotest.(check int) "no corrupt lines" 0 (List.length corrupt))
    (scan_segments j);
  let b2 = sbackend ~journal:j ~snapshot:s () in
  Alcotest.(check int) "nothing replayed" 0 (Backend.recovered b2);
  Alcotest.(check string) "snapshot restored the exact state" before
    (allocs_payload b2);
  cleanup_snapshot_paths j s

let backend_snapshot_watermark_replay () =
  let j, s = fresh_snapshot_paths "serve_snap_watermark" in
  let b1 = sbackend ~journal:j ~snapshot:s () in
  let apps = synth ~seed:22 4 in
  ignore (Backend.handle b1 ~clients:1 (req (Submit (spec_of_app apps.(0)))));
  ignore
    (Backend.handle b1 ~clients:1 (req ~at:3. (Submit (spec_of_app apps.(1)))));
  (match Backend.snapshot_now b1 with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("snapshot failed: " ^ m));
  (* Post-snapshot mutations land in the compacted journal and replay
     on top of the restored checkpoint. *)
  ignore
    (Backend.handle b1 ~clients:1 (req ~at:5. (Submit (spec_of_app apps.(2)))));
  ignore (Backend.handle b1 ~clients:1 (req ~at:7. (Cancel 0)));
  let before = allocs_payload b1 in
  let b2 = sbackend ~journal:j ~snapshot:s () in
  Alcotest.(check int) "only post-snapshot entries replayed" 2
    (Backend.recovered b2);
  Alcotest.(check string) "identical job set and allocations" before
    (allocs_payload b2);
  cleanup_snapshot_paths j s

let backend_snapshot_every_triggers () =
  let j, s = fresh_snapshot_paths "serve_snap_auto" in
  let b1 = sbackend ~snapshot_every:2 ~journal:j ~snapshot:s () in
  drive_scenario b1;
  (* 6 journalled mutations at a period of 2: at least two automatic
     checkpoints, and replay cost stays below one period. *)
  Alcotest.(check bool)
    "automatic snapshots written" true
    (Backend.snapshots_written b1 >= 2);
  let before = allocs_payload b1 in
  let b2 = sbackend ~snapshot_every:2 ~journal:j ~snapshot:s () in
  Alcotest.(check bool)
    "replay bounded by the snapshot period" true
    (Backend.recovered b2 < 2);
  Alcotest.(check string) "identical job set and allocations" before
    (allocs_payload b2);
  cleanup_snapshot_paths j s

let backend_torn_snapshot_write_keeps_journal () =
  let j, s = fresh_snapshot_paths "serve_snap_torn_write" in
  let b1 = sbackend ~journal:j ~snapshot:s () in
  drive_scenario b1;
  let before = allocs_payload b1 in
  (* An armed fault harness tears the snapshot payload mid-line, as a
     crash inside the write would: validation must catch it and the
     journal must keep its full history. *)
  let fault = Campaign.Fault.create ~torn_write:1.0 ~seed:7 () in
  (match Campaign.Fault.with_harness fault (fun () -> Backend.snapshot_now b1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "torn snapshot write went undetected");
  Alcotest.(check int) "no snapshot published" 0 (Backend.snapshots_written b1);
  Alcotest.(check bool) "no snapshot file" false (Sys.file_exists s);
  let b2 = sbackend ~journal:j ~snapshot:s () in
  Alcotest.(check int) "full journal replay" 6 (Backend.recovered b2);
  Alcotest.(check string) "identical job set and allocations" before
    (allocs_payload b2);
  cleanup_snapshot_paths j s

(* The snapshot directory, apart from the journal's, vanishes under a
   running backend: every automatic checkpoint fails, but no request
   does, and the journal alone recovers the state. *)
let backend_snapshot_dir_removed_keeps_serving () =
  let j = fresh_journal_path "serve_snap_gone.jsonl" in
  let dir = Filename.temp_dir "cosched-snapgone" "" in
  let b1 =
    sbackend ~snapshot_every:1 ~journal:j
      ~snapshot:(Filename.concat dir "d.snap") ()
  in
  Sys.rmdir dir;
  let apps = synth ~seed:23 3 in
  Array.iteri
    (fun i a ->
      match
        reply_of
          (Backend.handle b1 ~clients:1
             (req ~at:(float_of_int i) (Submit (spec_of_app a))))
      with
      | R_submitted { job } -> Alcotest.(check int) "job id" i job
      | _ -> Alcotest.fail "submit refused after a failed checkpoint")
    apps;
  (match reply_of (Backend.handle b1 ~clients:1 (req (Query Status))) with
  | R_status { snapshots; live; _ } ->
    Alcotest.(check int) "no snapshot counted" 0 snapshots;
    Alcotest.(check int) "every job live" 3 live
  | _ -> Alcotest.fail "status refused after a failed checkpoint");
  let before = allocs_payload b1 in
  let b2 = backend ~journal:j () in
  Alcotest.(check int) "journal kept every mutation" 3 (Backend.recovered b2);
  Alcotest.(check string) "identical job set and allocations" before
    (allocs_payload b2);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (journal_files j)

let backend_corrupt_snapshot_falls_back () =
  let j, s = fresh_snapshot_paths "serve_snap_corrupt" in
  let b1 = sbackend ~journal:j ~snapshot:s () in
  drive_scenario b1;
  let before = allocs_payload b1 in
  (* A torn checkpoint on disk — half a payload line, no checksum —
     while the journal still holds full history.  Recovery must
     quarantine it and fall back to replay. *)
  let oc = open_out s in
  output_string oc "{\"snapshot\":1,\"seq\":99,\"time\":3.5";
  close_out oc;
  let b2 = sbackend ~journal:j ~snapshot:s () in
  Alcotest.(check int) "full journal replay" 6 (Backend.recovered b2);
  Alcotest.(check string) "journal replay recovered the state" before
    (allocs_payload b2);
  Alcotest.(check bool) "corrupt snapshot quarantined" true
    (Sys.file_exists (Snapshot.quarantine_path s));
  Alcotest.(check bool) "corrupt snapshot removed from its path" false
    (Sys.file_exists s);
  cleanup_snapshot_paths j s

let corrupt_file p =
  let oc = open_out p in
  output_string oc "{\"snapshot\":1,\"seq\":99,\"time\":3.5";
  close_out oc

let backend_generation_fallback () =
  let j, s = fresh_snapshot_paths "serve_snap_generations" in
  let b1 = sbackend ~journal:j ~snapshot:s () in
  let apps = synth ~seed:23 6 in
  let submit i at =
    ignore
      (Backend.handle b1 ~clients:1 (req ~at (Submit (spec_of_app apps.(i)))))
  in
  submit 0 0.5;
  submit 1 3.;
  (match Backend.snapshot_now b1 with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("first snapshot failed: " ^ m));
  submit 2 5.;
  ignore (Backend.handle b1 ~clients:1 (req ~at:7. (Cancel 0)));
  (match Backend.snapshot_now b1 with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("second snapshot failed: " ^ m));
  (* The second checkpoint rotated the first to generation 1, and the
     journal kept the tail back to generation 1's watermark (submit 2 +
     cancel, now segment 1), plus this post-checkpoint submit. *)
  submit 3 9.;
  Alcotest.(check bool) "generation 1 on disk" true
    (Sys.file_exists (Snapshot.generation_path s 1));
  Alcotest.(check int) "journal retains the older generation's tail" 3
    (List.fold_left
       (fun n (entries, _) -> n + List.length entries)
       0 (scan_segments j));
  let before = allocs_payload b1 in
  (* Tear the newest checkpoint on disk: recovery must quarantine it,
     restore generation 1 and replay the retained tail — never resort
     to (impossible) full replay. *)
  corrupt_file s;
  let b2 = sbackend ~journal:j ~snapshot:s () in
  Alcotest.(check int) "tail since generation 1 replayed" 3
    (Backend.recovered b2);
  Alcotest.(check string) "older generation + tail restore the exact state"
    before (allocs_payload b2);
  Alcotest.(check bool) "torn generation 0 quarantined" true
    (Sys.file_exists (Snapshot.quarantine_path s));
  cleanup_snapshot_paths j s

let backend_all_generations_corrupt_full_replay () =
  let j, s = fresh_snapshot_paths "serve_snap_gen_all_corrupt" in
  let b1 = sbackend ~journal:j ~snapshot:s () in
  drive_scenario b1;
  let before = allocs_payload b1 in
  (* No checkpoint ever succeeded, so the journal still holds full
     history; torn files in every generation slot must all be
     quarantined on the way down to full replay. *)
  corrupt_file s;
  corrupt_file (Snapshot.generation_path s 1);
  let b2 = sbackend ~journal:j ~snapshot:s () in
  Alcotest.(check int) "full journal replay" 6 (Backend.recovered b2);
  Alcotest.(check string) "identical job set and allocations" before
    (allocs_payload b2);
  Alcotest.(check bool) "generation 0 quarantined" true
    (Sys.file_exists (Snapshot.quarantine_path s));
  Alcotest.(check bool) "generation 1 quarantined" true
    (Sys.file_exists (Snapshot.quarantine_path (Snapshot.generation_path s 1)));
  cleanup_snapshot_paths j s

(* --- checkpoint crash cuts ---------------------------------------------- *)

let with_temp_dir name f =
  let dir = Filename.temp_dir ("cosched-" ^ name) "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let kbackend ~keep ~journal ~snapshot =
  Backend.create
    {
      Backend.default_config with
      platform;
      journal = Some journal;
      snapshot = Some snapshot;
      snapshot_keep = keep;
    }

let submit_at b (a : Model.App.t) at =
  ignore (Backend.handle b ~clients:1 (req ~at (Submit (spec_of_app a))))

let checkpoint b =
  match Backend.snapshot_now b with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("checkpoint failed: " ^ m)

(* Run [b]'s next checkpoint, cut before operation [cut] of [ops] (the
   checkpoint's fault points in order) as a SIGKILL there would: the
   fault point raises and the files on disk are all that survive.
   [cut = List.length ops] runs it to the end, which pins [ops] as the
   complete list.  Returns the key cut before, or ["none"]. *)
let cut_checkpoint b ops cut =
  let what = match List.nth_opt ops cut with Some (_, key) -> key | None -> "none" in
  let fault = Campaign.Fault.create ~store_exn:1.0 ~seed:3 () in
  Campaign.Fault.with_harness fault (fun () ->
      (* The harness raises at each key's first operation only: spend
         that on every operation before the cut. *)
      List.iteri
        (fun i (site, key) ->
          if i < cut then
            try Campaign.Fault.store_point ~site ~key
            with Campaign.Fault.Injected _ -> ())
        ops;
      match Backend.snapshot_now b with
      | Ok () when cut = List.length ops -> ()
      | Ok () -> Alcotest.failf "checkpoint ran past the cut before %s" what
      | Error m -> Alcotest.failf "checkpoint failed: %s" m
      | exception Campaign.Fault.Injected m ->
        Alcotest.(check bool)
          ("cut before " ^ what) true
          (String.ends_with ~suffix:(what ^ " op 0") m));
  what

let newest_generation s =
  List.find_opt (fun k -> Sys.file_exists (Snapshot.generation_path s k)) [ 0; 1; 2 ]

(* A fourth checkpoint of a backend keeping three generations, with
   mutations around each, so it finds three generations and three
   non-empty journal segments on disk.  Cut before each of its file
   operations in turn, recovery must restore the pre-checkpoint state
   byte for byte, and so must the fallback after the newest surviving
   generation is torn. *)
let checkpoint_crash_cuts () =
  for cut = 0 to 8 do
    with_temp_dir "cut" @@ fun dir ->
    let j = Filename.concat dir "d.jsonl" and s = Filename.concat dir "d.snap" in
    let b = kbackend ~keep:3 ~journal:j ~snapshot:s in
    let apps = synth ~seed:31 8 in
    for c = 0 to 2 do
      submit_at b apps.(2 * c) (float_of_int (2 * c));
      submit_at b apps.((2 * c) + 1) (float_of_int ((2 * c) + 1));
      checkpoint b
    done;
    submit_at b apps.(6) 6.;
    ignore (Backend.handle b ~clients:1 (req ~at:6.5 (Cancel 2)));
    let before = allocs_payload b in
    let g = Snapshot.generation_path s and seg = Campaign.Journal.segment_path j in
    let what =
      cut_checkpoint b
        [
          (`Snapshot, "unlink " ^ g 2);
          (`Snapshot, "rename " ^ g 1);
          (`Snapshot, "rename " ^ g 0);
          (`Snapshot, "publish " ^ g 0);
          (`Journal, "unlink " ^ seg 2);
          (`Journal, "rename " ^ seg 1);
          (`Journal, "rename " ^ seg 0);
          (`Journal, "create " ^ seg 0);
        ]
        cut
    in
    let recovered () = allocs_payload (kbackend ~keep:3 ~journal:j ~snapshot:s) in
    Alcotest.(check string) ("recovered after a cut before " ^ what) before
      (recovered ());
    (match newest_generation s with
    | Some k -> corrupt_file (Snapshot.generation_path s k)
    | None -> Alcotest.failf "no generation on disk after a cut before %s" what);
    Alcotest.(check string)
      ("fallback recovered after a cut before " ^ what)
      before (recovered ())
  done

(* A crash between the generation shift and the publish leaves [FILE]
   vacant and the only generation in the last slot.  The next
   checkpoint must publish before it unlinks that one: cut anywhere,
   a generation is on disk and recovery is exact. *)
let checkpoint_after_a_hole_keeps_a_generation () =
  for cut = 0 to 4 do
    with_temp_dir "hole" @@ fun dir ->
    let j = Filename.concat dir "d.jsonl" and s = Filename.concat dir "d.snap" in
    let b = kbackend ~keep:2 ~journal:j ~snapshot:s in
    let apps = synth ~seed:33 4 in
    submit_at b apps.(0) 0.;
    checkpoint b;
    submit_at b apps.(1) 1.;
    ignore
      (cut_checkpoint b
         [ (`Snapshot, "rename " ^ s); (`Snapshot, "publish " ^ s) ]
         1);
    let b = kbackend ~keep:2 ~journal:j ~snapshot:s in
    submit_at b apps.(2) 2.;
    let before = allocs_payload b in
    let what =
      cut_checkpoint b
        [
          (`Snapshot, "publish " ^ s);
          (`Snapshot, "unlink " ^ Snapshot.generation_path s 1);
          (`Journal, "unlink " ^ j);
          (`Journal, "create " ^ j);
        ]
        cut
    in
    Alcotest.(check bool)
      ("a generation on disk after a cut before " ^ what)
      true
      (newest_generation s <> None);
    Alcotest.(check string) ("recovered after a cut before " ^ what) before
      (allocs_payload (kbackend ~keep:2 ~journal:j ~snapshot:s))
  done

(* Generations and segments rotate by rename: the second checkpoint
   moves the first's files, inode and all, one slot down.  Rewriting
   either file through a tmp copy would give it a new inode. *)
let checkpoint_rotates_by_rename () =
  with_temp_dir "rename" @@ fun dir ->
  let j = Filename.concat dir "d.jsonl" and s = Filename.concat dir "d.snap" in
  let keep = Backend.default_config.snapshot_keep in
  let b = kbackend ~keep ~journal:j ~snapshot:s in
  let apps = synth ~seed:32 3 in
  submit_at b apps.(0) 0.;
  checkpoint b;
  submit_at b apps.(1) 1.;
  submit_at b apps.(2) 2.;
  let ino p = (Unix.stat p).Unix.st_ino in
  let snap_ino = ino s and journal_ino = ino j in
  checkpoint b;
  Alcotest.(check int) "FILE.1 is the former FILE" snap_ino
    (ino (Snapshot.generation_path s 1));
  Alcotest.(check int) "J.1 is the former J" journal_ino
    (ino (Campaign.Journal.segment_path j 1));
  Alcotest.(check (list string)) "no tmp file left" []
    (List.filter
       (String.ends_with ~suffix:".tmp")
       (Array.to_list (Sys.readdir dir)));
  Alcotest.(check bool) "at most snapshot_keep segments" true
    (List.length (Campaign.Journal.segments ~path:j) <= keep)

(* --- session: bounded outbound queue ------------------------------------ *)

let session_pair () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (* Shrink the kernel buffer so a stalled reader blocks the writer
     within a few frames. *)
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  (a, b)

(* Flush [s] while reading its peer [b] until the session drains and the
   peer sees EOF; returns the decoded payloads (in order) and any framing
   error the peer hit. *)
let drain_session s b =
  let d = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let err = ref None in
  let pull () =
    let continue = ref true in
    while !continue && !err = None do
      match Frame.next d with
      | `Frame p -> out := p :: !out
      | `Await -> continue := false
      | `Error m ->
        err := Some m;
        continue := false
    done
  in
  let read_avail () =
    let eof = ref false in
    let continue = ref true in
    while !continue do
      match Unix.read b buf 0 (Bytes.length buf) with
      | 0 ->
        eof := true;
        continue := false
      | n -> Frame.feed d (Bytes.sub_string buf 0 n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    done;
    !eof
  in
  let writer_done = ref false in
  let eof = ref false in
  while not !eof do
    (if not !writer_done then
       match Session.flush s ~now:1. with
       | `Idle ->
         Session.close s;
         writer_done := true
       | `Blocked -> ()
       | `Closed ->
         Session.close s;
         writer_done := true);
    eof := read_avail ();
    pull ()
  done;
  pull ();
  Unix.close b;
  (List.rev !out, !err)

let session_send_refuses_past_bound () =
  let a, b = session_pair () in
  let s = Session.create ~max_out:256 ~id:0 ~now:0. a in
  let payload = String.make 100 'x' in
  Alcotest.(check bool) "first frame fits" true (Session.send s payload);
  Alcotest.(check bool) "second frame fits" true (Session.send s payload);
  Alcotest.(check bool) "third frame refused" false (Session.send s payload);
  Alcotest.(check bool)
    "refusal left the queue within its bound" true
    (Session.pending_out s <= 256);
  let decoded, err = drain_session s b in
  Alcotest.(check (option string)) "no framing error" None err;
  Alcotest.(check (list string))
    "exactly the accepted frames arrive" [ payload; payload ] decoded

let session_truncate_preserves_head_frame () =
  let a, b = session_pair () in
  let s = Session.create ~id:0 ~now:0. a in
  let big = String.make 65536 'h' in
  let tail = String.make 512 't' in
  Alcotest.(check bool) "big frame queued" true (Session.send s big);
  for _ = 1 to 4 do
    ignore (Session.send s tail)
  done;
  (* One flush against a full kernel buffer: the big head frame is now
     partially written — eviction truncation must finish it, not tear
     it. *)
  (match Session.flush s ~now:0.5 with
  | `Blocked -> ()
  | `Idle -> Alcotest.fail "kernel buffer swallowed 66 KiB; shrink SO_SNDBUF"
  | `Closed -> Alcotest.fail "peer closed");
  Alcotest.(check bool) "write-blocked clock running" true
    (Session.blocked_since s <> None);
  let dropped = Session.truncate_out s in
  Alcotest.(check int) "whole queued frames dropped" 4 dropped;
  Alcotest.(check bool) "eviction notice accepted after truncation" true
    (Session.send s "notice");
  Session.close_after_flush s;
  let decoded, err = drain_session s b in
  Alcotest.(check (option string)) "no framing error" None err;
  Alcotest.(check (list string))
    "head frame completed, then the notice" [ big; "notice" ] decoded

let rec is_ordered_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    if String.equal x y then is_ordered_subseq xs' ys'
    else is_ordered_subseq xs ys'

let gen_overflow_scenario =
  QCheck.Gen.(
    let* payloads = list_size (int_range 1 30) (string_size (int_range 0 8192)) in
    let* max_out = int_range 1024 32768 in
    let* cut = int_range 0 30 in
    return (payloads, max_out, cut))

let qcheck_stalled_reader_framing =
  QCheck.Test.make ~count:40
    ~name:"stalled reader: overflow + eviction never corrupt framing"
    (QCheck.make gen_overflow_scenario ~print:(fun (ps, m, c) ->
         Printf.sprintf "%d payloads, max_out %d, cut %d" (List.length ps) m c))
    (fun (payloads, max_out, cut) ->
      let a, b = session_pair () in
      let s = Session.create ~max_out ~id:0 ~now:0. a in
      let accepted = ref [] in
      List.iteri
        (fun i p ->
          (* Mid-stream, behave like the daemon evicting a slow client:
             partial flush, then truncate. *)
          if i = cut then begin
            ignore (Session.flush s ~now:0.1);
            ignore (Session.truncate_out s)
          end;
          if Session.send s p then accepted := p :: !accepted)
        payloads;
      ignore (Session.flush s ~now:0.2);
      ignore (Session.truncate_out s);
      let notice = "evicted" in
      let notice_sent = Session.send s notice in
      Session.close_after_flush s;
      let decoded, err = drain_session s b in
      (match err with
      | Some m -> QCheck.Test.fail_reportf "framing error at the peer: %s" m
      | None -> ());
      (* Whatever was dropped, the peer must see whole frames only: an
         in-order subsequence of the accepted payloads, with the notice
         (if it fit) as the final frame. *)
      let body, last =
        match List.rev decoded with
        | last :: rev_body when notice_sent && String.equal last notice ->
          (List.rev rev_body, true)
        | _ -> (decoded, false)
      in
      if notice_sent && not last then
        QCheck.Test.fail_reportf "eviction notice did not arrive last";
      if not (is_ordered_subseq body (List.rev !accepted)) then
        QCheck.Test.fail_reportf
          "peer saw %d frames that are not an ordered subsequence of the %d accepted"
          (List.length body)
          (List.length !accepted);
      true)

(* --- chaos wire simulator ----------------------------------------------- *)

(* A faithful in-memory model of {!Retry_client} against the daemon: the
   same {!Chaos} planner decides each frame's fate, the server side is a
   real {!Frame} decoder in front of a real {!Backend}, and "killing the
   connection" resets the decoder exactly as the daemon's drop of a dead
   client does.  Sleeps are skipped — the planner's decisions, not the
   timing, are what is under test. *)

type sim = {
  sim_backend : Backend.t;
  sim_chaos : Chaos.t;
  mutable sim_dec : Frame.decoder;
  sim_replies : Protocol.response Queue.t;
}

exception Sim_retry

let sim_kill sim =
  sim.sim_dec <- Frame.decoder ();
  Queue.clear sim.sim_replies

let sim_deliver sim bytes =
  Frame.feed sim.sim_dec bytes;
  let continue = ref true in
  while !continue do
    match Frame.next sim.sim_dec with
    | `Frame payload -> (
      match Protocol.decode_request payload with
      | Ok r ->
        Queue.add (Backend.handle sim.sim_backend ~clients:1 r) sim.sim_replies
      | Error _ -> ())
    | `Await -> continue := false
    | `Error _ ->
      (* The daemon drops connections on framing errors. *)
      sim_kill sim;
      continue := false
  done

let sim_request sim ~sid ~rid ?at verb =
  let frame =
    Frame.encode
      (Protocol.encode_request { Protocol.rid; sid = Some sid; at; verb })
  in
  let rec attempt n =
    if n > 500 then failwith "chaos sim: attempt budget exhausted"
    else
      match
        (match Chaos.on_send sim.sim_chaos ~len:(String.length frame) with
        | Chaos.Pass | Chaos.Delay _ | Chaos.Reorder ->
          (* A held-back frame is flushed before the client blocks on the
             reply (see Retry_client), so with one request in flight a
             reorder degenerates to in-order delivery. *)
          sim_deliver sim frame
        | Chaos.Duplicate ->
          sim_deliver sim frame;
          sim_deliver sim frame
        | Chaos.Truncate k ->
          sim_deliver sim (String.sub frame 0 k);
          sim_kill sim;
          raise Sim_retry
        | Chaos.Kill ->
          sim_kill sim;
          raise Sim_retry);
        (match Chaos.on_read sim.sim_chaos with
        | Chaos.R_pass | Chaos.R_stall _ -> ()
        | Chaos.R_kill ->
          sim_kill sim;
          raise Sim_retry);
        (* Take our reply, skipping stale ones (duplicate deliveries of
           earlier requests answered by the dedup cache). *)
        let rec take () =
          if Queue.is_empty sim.sim_replies then raise Sim_retry
          else
            let r = Queue.pop sim.sim_replies in
            if r.Protocol.rid = rid then r else take ()
        in
        take ()
      with
      | r -> r
      | exception Sim_retry -> attempt (n + 1)
  in
  attempt 0

let qcheck_chaotic_retries_equal_offline =
  QCheck.Test.make ~count:30
    ~name:"retrying workload under chaos == offline Online.Service.run"
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_bound 10_000 in
         let* n = int_range 1 6 in
         let* cancel = list_size (return n) bool in
         let* chaos_seed = int_bound 100_000 in
         return (seed, n, cancel, chaos_seed))
       ~print:(fun (seed, n, cancel, chaos_seed) ->
         Printf.sprintf "seed %d, %d arrivals, cancels [%s], chaos seed %d" seed
           n
           (String.concat ";" (List.map string_of_bool cancel))
           chaos_seed))
    (fun (seed, n, cancel, chaos_seed) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 1) in
      let arrivals =
        Array.init n (fun i ->
            (10. *. float_of_int i) +. (5. *. Util.Rng.float rng 1.))
      in
      let horizon = arrivals.(n - 1) +. 10. in
      let events =
        List.concat
          [
            List.init n (fun i ->
                {
                  Online.Workload_stream.time = arrivals.(i);
                  kind = Online.Workload_stream.Arrival apps.(i);
                });
            List.filteri (fun i _ -> List.nth cancel i) (List.init n Fun.id)
            |> List.map (fun i ->
                   {
                     Online.Workload_stream.time = horizon +. float_of_int i;
                     kind = Online.Workload_stream.Departure i;
                   });
          ]
      in
      let stream = Online.Workload_stream.of_events events in
      let offline = Online.Service.run ~platform stream in
      let sim =
        {
          sim_backend = backend ();
          sim_chaos = Chaos.storm ~seed:chaos_seed;
          sim_dec = Frame.decoder ();
          sim_replies = Queue.create ();
        }
      in
      let rid = ref 0 in
      let send ?at verb =
        let r = sim_request sim ~sid:"qc" ~rid:!rid ?at verb in
        incr rid;
        r
      in
      List.iter
        (fun (ev : Online.Workload_stream.event) ->
          let verb =
            match ev.kind with
            | Online.Workload_stream.Arrival app ->
              Protocol.Submit (spec_of_app app)
            | Online.Workload_stream.Departure id -> Protocol.Cancel id
          in
          match (send ~at:ev.time verb).reply with
          | R_submitted _ | R_cancelled _ -> ()
          | R_error { message; _ } -> failwith message
          | _ -> failwith "unexpected reply")
        (Online.Workload_stream.events stream);
      (match (send Protocol.Drain).reply with
      | R_drained _ -> ()
      | _ -> failwith "drain failed");
      match (send (Query Stats)).reply with
      | R_stats { metrics; _ } ->
        let served = Online.Metrics.to_json metrics in
        let off = Online.Metrics.to_json offline.Online.Service.metrics in
        if served <> off then
          QCheck.Test.fail_reportf
            "under chaos seed %d (%d faults injected):@.served  %s@.offline %s"
            chaos_seed
            (Chaos.injected sim.sim_chaos)
            served off
        else true
      | _ -> failwith "stats failed")

(* --- served-vs-offline equivalence ------------------------------------- *)

let gen_scenario =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* n = int_range 1 6 in
    let* cancel = list_size (return n) bool in
    return (seed, n, cancel))

let qcheck_backend_equals_offline_service =
  QCheck.Test.make ~count:30
    ~name:"request-driven backend == offline Online.Service.run"
    (QCheck.make gen_scenario ~print:(fun (seed, n, cancel) ->
         Printf.sprintf "seed %d, %d arrivals, cancels [%s]" seed n
           (String.concat ";" (List.map string_of_bool cancel))))
    (fun (seed, n, cancel) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 1) in
      let arrivals =
        Array.init n (fun i ->
            (10. *. float_of_int i) +. (5. *. Util.Rng.float rng 1.))
      in
      let horizon = arrivals.(n - 1) +. 10. in
      let events =
        List.concat
          [
            List.init n (fun i ->
                {
                  Online.Workload_stream.time = arrivals.(i);
                  kind = Online.Workload_stream.Arrival apps.(i);
                });
            List.filteri (fun i _ -> List.nth cancel i) (List.init n Fun.id)
            |> List.map (fun i ->
                   {
                     Online.Workload_stream.time = horizon +. float_of_int i;
                     kind = Online.Workload_stream.Departure i;
                   });
          ]
      in
      let stream = Online.Workload_stream.of_events events in
      let offline = Online.Service.run ~platform stream in
      (* Same events, request by request, through the daemon's backend. *)
      let b = backend () in
      List.iter
        (fun (ev : Online.Workload_stream.event) ->
          let verb =
            match ev.kind with
            | Online.Workload_stream.Arrival app ->
              Protocol.Submit (spec_of_app app)
            | Online.Workload_stream.Departure id -> Protocol.Cancel id
          in
          match (Backend.handle b ~clients:1 (req ~at:ev.time verb)).reply with
          | R_submitted _ | R_cancelled _ -> ()
          | R_error { message; _ } -> failwith message
          | _ -> failwith "unexpected reply")
        (Online.Workload_stream.events stream);
      (match (Backend.handle b ~clients:1 (req Protocol.Drain)).reply with
      | R_drained _ -> ()
      | _ -> failwith "drain failed");
      match (Backend.handle b ~clients:1 (req (Query Stats))).reply with
      | R_stats { metrics; _ } ->
        let served = Online.Metrics.to_json metrics in
        let off = Online.Metrics.to_json offline.Online.Service.metrics in
        if served <> off then
          QCheck.Test.fail_reportf "served %s@.offline %s" served off
        else true
      | _ -> failwith "stats failed")

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          test "round trip" frame_roundtrip;
          test "byte-by-byte reassembly" frame_byte_by_byte;
          test "truncated header awaits" frame_truncated_header_awaits;
          test "bad headers are errors" frame_bad_header_is_error;
          test "oversized frame is a sticky error" frame_oversized_is_error;
          test "missing trailer is an error" frame_missing_trailer_is_error;
          test "header flood is an error" frame_header_flood_is_error;
          qtest qcheck_frame_chunked_roundtrip;
        ] );
      ( "protocol",
        [
          qtest qcheck_request_roundtrip;
          qtest qcheck_incoming_roundtrip;
          test "rejects invalid UTF-8" protocol_rejects_invalid_utf8;
          test "rejects malformed JSON" protocol_rejects_malformed_json;
          test "rejects bad versions" protocol_rejects_bad_version;
          test "rejects unknown verbs" protocol_rejects_unknown_verb;
          qtest qcheck_decode_never_raises;
        ] );
      ( "backend",
        [
          test "submit/cancel/drain lifecycle" backend_lifecycle;
          test "queue-depth backpressure" backend_backpressure;
          test "rejects invalid app parameters" backend_rejects_invalid_app;
          test "epoch tags are monotone" backend_epoch_monotone;
          test "stats JSON carries solver counters"
            backend_stats_json_has_solver_counters;
        ] );
      ( "recovery",
        [
          test "journal replay restores the job set" backend_journal_recovery;
          test "torn tail is quarantined, not replayed"
            backend_journal_torn_tail;
          test "post-recovery mutations survive the next crash"
            backend_post_recovery_mutations_survive;
        ] );
      ( "dedup",
        [
          test "retried submit is exactly-once" backend_dedup_exactly_once;
          test "retried cancel replays the original reply"
            backend_dedup_cancel_retry;
          test "dedup cache survives journal recovery"
            backend_dedup_survives_recovery;
        ] );
      ( "shedding",
        [
          test "hysteresis: shed at highwater, recover at lowwater"
            backend_shed_hysteresis;
          test "config validation" backend_config_validation;
          test "journal or snapshot into a missing directory fails at create"
            backend_missing_directory;
        ] );
      ( "snapshot",
        [
          test "snapshot_now compacts the journal"
            backend_snapshot_compacts_journal;
          test "watermark replay on top of a snapshot"
            backend_snapshot_watermark_replay;
          test "snapshot_every triggers automatic checkpoints"
            backend_snapshot_every_triggers;
          test "torn snapshot write never compacts"
            backend_torn_snapshot_write_keeps_journal;
          test "a removed snapshot directory fails checkpoints, not requests"
            backend_snapshot_dir_removed_keeps_serving;
          test "corrupt snapshot is quarantined, journal replayed"
            backend_corrupt_snapshot_falls_back;
          test "torn newest generation falls back to the older one"
            backend_generation_fallback;
          test "all generations torn: quarantine chain, full replay"
            backend_all_generations_corrupt_full_replay;
          test "a checkpoint cut before any file operation recovers"
            checkpoint_crash_cuts;
          test "a checkpoint after a mid-rotation crash keeps a generation"
            checkpoint_after_a_hole_keeps_a_generation;
          test "checkpoints rotate generations and segments by rename"
            checkpoint_rotates_by_rename;
        ] );
      ( "session",
        [
          test "send refuses past the outbound bound"
            session_send_refuses_past_bound;
          test "eviction truncation preserves the head frame"
            session_truncate_preserves_head_frame;
          qtest qcheck_stalled_reader_framing;
        ] );
      ("chaos-sim", [ qtest qcheck_chaotic_retries_equal_offline ]);
      ("equivalence", [ qtest qcheck_backend_equals_offline_service ]);
    ]
