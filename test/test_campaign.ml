(* Tests for the experiment-campaign engine: domain pool ordering and
   exception propagation, digest stability, journal
   checkpoint/resume (including crash-truncated and corrupted files),
   trial isolation with the abort/skip/retry policies, the cooperative
   watchdog, deterministic fault injection, and end-to-end determinism of
   campaigns across jobs counts. *)

let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let tmp_path suffix =
  Filename.temp_file "cosched_campaign_test" suffix

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* --- Pool ----------------------------------------------------------------- *)

let pool_ordering () =
  let a = Array.init 200 Fun.id in
  let f x =
    (* Uneven busy work scrambles completion order across workers. *)
    let spin = ref 0 in
    for _ = 1 to (x * 37) mod 1500 do
      spin := Sys.opaque_identity (!spin + 1)
    done;
    (x * x) + !spin - !spin
  in
  let expected = Array.map f a in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_ordered jobs=%d" jobs)
        expected
        (Exec.Pool.map_ordered ~jobs f a))
    [ 1; 2; 8 ]

let pool_empty_and_singleton () =
  Alcotest.(check (array int))
    "empty" [||]
    (Exec.Pool.map_ordered ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int))
    "singleton" [| 9 |]
    (Exec.Pool.map_ordered ~jobs:4 (fun x -> x * x) [| 3 |])

let pool_exception_propagation () =
  let a = Array.init 20 Fun.id in
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failing index re-raised (jobs=%d)" jobs)
        (Failure "3")
        (fun () -> ignore (Exec.Pool.map_ordered ~jobs f a)))
    [ 1; 4 ]

let pool_outcome_isolation () =
  let a = Array.init 20 Fun.id in
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x * 2 in
  List.iter
    (fun jobs ->
      let out = Exec.Pool.map_outcomes_ordered ~jobs f a in
      Array.iteri
        (fun i -> function
          | Ok v ->
            Alcotest.(check bool)
              (Printf.sprintf "index %d should have failed" i)
              false (i mod 7 = 3);
            Alcotest.(check int) (Printf.sprintf "payload %d" i) (i * 2) v
          | Error (Failure m, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "index %d should have succeeded" i)
              true (i mod 7 = 3);
            Alcotest.(check string) "captured message" (string_of_int i) m
          | Error _ -> Alcotest.fail "unexpected exception kind")
        out)
    [ 1; 4 ]

let pool_reuse () =
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "three workers" 3 (Exec.Pool.size pool);
      let a = Array.init 50 Fun.id in
      let first = Exec.Pool.map_array pool (fun x -> x + 1) a in
      let second = Exec.Pool.map_array pool (fun x -> x * 2) a in
      Alcotest.(check (array int)) "first" (Array.map (fun x -> x + 1) a) first;
      Alcotest.(check (array int)) "second" (Array.map (fun x -> x * 2) a) second)

(* --- Digest --------------------------------------------------------------- *)

let sample_instance () =
  let platform = Model.Platform.paper_default in
  let apps =
    Model.Workload.generate ~rng:(Util.Rng.create 7) Model.Workload.NpbSynth 4
  in
  (platform, apps)

let digest_stable () =
  let platform, apps = sample_instance () in
  let key () =
    Campaign.Digest.trial ~kind:"k" ~platform ~apps ~policies:[ "A"; "B" ]
      ~state:42L
  in
  Alcotest.(check string) "same content, same key" (key ()) (key ());
  Alcotest.(check int) "16 hex chars" 16 (String.length (key ()))

let digest_sensitive () =
  let platform, apps = sample_instance () in
  let base =
    Campaign.Digest.trial ~kind:"k" ~platform ~apps ~policies:[ "A" ] ~state:1L
  in
  let differs name key = Alcotest.(check bool) name true (key <> base) in
  differs "state changes key"
    (Campaign.Digest.trial ~kind:"k" ~platform ~apps ~policies:[ "A" ]
       ~state:2L);
  differs "policy list changes key"
    (Campaign.Digest.trial ~kind:"k" ~platform ~apps ~policies:[ "B" ]
       ~state:1L);
  differs "kind changes key"
    (Campaign.Digest.trial ~kind:"other" ~platform ~apps ~policies:[ "A" ]
       ~state:1L);
  differs "platform changes key"
    (Campaign.Digest.trial ~kind:"k"
       ~platform:(Model.Platform.with_p platform 128.)
       ~apps ~policies:[ "A" ] ~state:1L);
  let perturbed = Array.copy apps in
  perturbed.(0) <- Model.App.with_w perturbed.(0) 1.5e11;
  differs "one app field changes key"
    (Campaign.Digest.trial ~kind:"k" ~platform ~apps:perturbed
       ~policies:[ "A" ] ~state:1L);
  Alcotest.(check bool) "tags cannot alias across boundaries" true
    (Campaign.Digest.tagged ~tag:"ab" ~state:1L
    <> Campaign.Digest.tagged ~tag:"a" ~state:1L)

(* --- Journal -------------------------------------------------------------- *)

let journal_roundtrip () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let j = Campaign.Journal.create ~path in
  Campaign.Journal.append j
    { Campaign.Journal.trial = 0; key = "aa"; values = [| 1.25 |] };
  Campaign.Journal.append j
    { Campaign.Journal.trial = 1; key = "bb"; values = [| Float.pi; -3.5 |] };
  Campaign.Journal.append j
    { Campaign.Journal.trial = 2; key = "cc"; values = [||] };
  (* Duplicate key is ignored. *)
  Campaign.Journal.append j
    { Campaign.Journal.trial = 9; key = "bb"; values = [| 0. |] };
  Alcotest.(check int) "3 entries" 3 (Campaign.Journal.length j);
  let replayed = Campaign.Journal.create ~path in
  Alcotest.(check int) "replayed 3" 3 (Campaign.Journal.length replayed);
  Alcotest.(check int) "nothing quarantined" 0
    (Campaign.Journal.quarantined replayed);
  (match Campaign.Journal.lookup replayed "bb" with
  | Some [| a; b |] ->
    Alcotest.(check bool) "pi round-trips" true
      (Int64.bits_of_float a = Int64.bits_of_float Float.pi);
    Alcotest.(check (float 0.)) "second value" (-3.5) b
  | _ -> Alcotest.fail "lookup bb");
  let trials =
    List.map
      (fun e -> e.Campaign.Journal.trial)
      (Campaign.Journal.entries replayed)
  in
  Alcotest.(check (list int)) "entries in append order" [ 0; 1; 2 ] trials;
  Sys.remove path

(* A line stripped of its checksum is not trusted: it is quarantined
   like any other corrupt line and its trial recomputed. *)
let journal_unsummed_line_quarantined () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let j = Campaign.Journal.create ~path in
  Campaign.Journal.append j
    { Campaign.Journal.trial = 0; key = "aa"; values = [| 1. |] };
  Campaign.Journal.append j
    { Campaign.Journal.trial = 1; key = "bb"; values = [| 2. |] };
  let strip line =
    let marker = ",\"sum\":" in
    let rec find i =
      if String.sub line i (String.length marker) = marker then i
      else find (i + 1)
    in
    String.sub line 0 (find 0) ^ "}"
  in
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin path In_channel.input_all)
  in
  let stripped = strip (List.hd lines) in
  Alcotest.(check string) "sum field stripped"
    "{\"trial\":0,\"key\":\"aa\",\"values\":[1]}" stripped;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.concat "\n" (stripped :: List.tl lines)));
  let resumed = Campaign.Journal.create ~path in
  Alcotest.(check int) "unsummed line quarantined" 1
    (Campaign.Journal.quarantined resumed);
  Alcotest.(check (option (array (float 0.)))) "unsummed entry absent" None
    (Campaign.Journal.lookup resumed "aa");
  Alcotest.(check (option (array (float 0.)))) "summed entry survives"
    (Some [| 2. |])
    (Campaign.Journal.lookup resumed "bb");
  Sys.remove path;
  remove_if_exists (Campaign.Journal.quarantine_path path)

let journal_crash_resume () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let j = Campaign.Journal.create ~path in
  Campaign.Journal.append j
    { Campaign.Journal.trial = 0; key = "aa"; values = [| 1. |] };
  Campaign.Journal.append j
    { Campaign.Journal.trial = 1; key = "bb"; values = [| 2. |] };
  (* Simulate a crash mid-write: a torn, half-written trailing line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"trial\":2,\"key\":\"cc\",\"val";
  close_out oc;
  let entries = Campaign.Journal.load ~path in
  Alcotest.(check int) "torn line skipped" 2 (List.length entries);
  let resumed = Campaign.Journal.create ~path in
  Alcotest.(check int) "torn line quarantined" 1
    (Campaign.Journal.quarantined resumed);
  let qpath = Campaign.Journal.quarantine_path path in
  Alcotest.(check bool) "quarantine file preserves the bad line" true
    (Sys.file_exists qpath
    && contains
         (In_channel.with_open_bin qpath In_channel.input_all)
         "{\"trial\":2,\"key\":\"cc\",\"val");
  Alcotest.(check (option (array (float 0.)))) "intact entry survives"
    (Some [| 2. |])
    (Campaign.Journal.lookup resumed "bb");
  Alcotest.(check (option (array (float 0.)))) "torn entry absent" None
    (Campaign.Journal.lookup resumed "cc");
  (* Appending after a resume heals the file. *)
  Campaign.Journal.append resumed
    { Campaign.Journal.trial = 2; key = "cc"; values = [| 3. |] };
  Alcotest.(check int) "healed journal" 3
    (List.length (Campaign.Journal.load ~path));
  let healed = Campaign.Journal.create ~path in
  Alcotest.(check int) "healed journal has no bad line left" 0
    (Campaign.Journal.quarantined healed);
  Sys.remove path;
  remove_if_exists qpath

(* --- Journal integrity properties ------------------------------------------ *)

let journal_fixture_entries n =
  List.init n (fun i ->
      {
        Campaign.Journal.trial = i;
        key = Printf.sprintf "k%02d" i;
        values = [| (float_of_int i +. 0.5) *. 1.25; -3.75 /. float_of_int (i + 1) |];
      })

(* Build a journal of [n] entries at a fresh path, run [f path], clean up. *)
let with_journal_file n f =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let j = Campaign.Journal.create ~path in
  List.iter (Campaign.Journal.append j) (journal_fixture_entries n);
  Fun.protect
    ~finally:(fun () ->
      remove_if_exists path;
      remove_if_exists (Campaign.Journal.quarantine_path path))
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let journal_lines s =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let journal_corrupt_byte_prop =
  QCheck.Test.make ~count:60
    ~name:"journal: corrupting any byte quarantines exactly that line"
    QCheck.(triple (int_range 1 8) small_nat small_nat)
    (fun (n, line_pick, byte_pick) ->
      with_journal_file n (fun path ->
          let s = read_file path in
          let lines = journal_lines s in
          let li = line_pick mod n in
          let target = List.nth lines li in
          let off = byte_pick mod String.length target in
          let start =
            List.fold_left
              (fun acc l -> acc + String.length l + 1)
              0
              (List.filteri (fun i _ -> i < li) lines)
          in
          let b = Bytes.of_string s in
          let old = Bytes.get b (start + off) in
          let repl =
            (* Any different byte; avoid '\n', which would split the line
               (still quarantined, but the per-line model below would not
               be exact). *)
            let c = Char.chr ((Char.code old + 1) land 0xff) in
            if c = '\n' then Char.chr ((Char.code old + 2) land 0xff) else c
          in
          Bytes.set b (start + off) repl;
          write_file path (Bytes.to_string b);
          let entries, bad = Campaign.Journal.scan ~path in
          let trials = List.map (fun e -> e.Campaign.Journal.trial) entries in
          let expected = List.filter (fun i -> i <> li) (List.init n Fun.id) in
          trials = expected && bad <> []))

let journal_truncate_prop =
  QCheck.Test.make ~count:60
    ~name:"journal: truncation at any byte resumes the intact prefix"
    QCheck.(pair (int_range 1 8) small_nat)
    (fun (n, cut_pick) ->
      with_journal_file n (fun path ->
          let s = read_file path in
          let cut = cut_pick mod (String.length s + 1) in
          write_file path (String.sub s 0 cut);
          (* Model: an entry survives iff its complete line text fits in
             the kept prefix (the trailing newline may be cut). *)
          let expected, _ =
            List.fold_left
              (fun (kept, off) l ->
                let endoff = off + String.length l in
                ((if cut >= endoff then kept + 1 else kept), endoff + 1))
              (0, 0) (journal_lines s)
          in
          let entries = Campaign.Journal.load ~path in
          List.map (fun e -> e.Campaign.Journal.trial) entries
          = List.init expected Fun.id
          && Campaign.Journal.length (Campaign.Journal.create ~path) = expected))

(* --- Watchdog --------------------------------------------------------------- *)

let watchdog_basics () =
  Campaign.Watchdog.check ();
  Alcotest.(check bool) "no deadline installed" false
    (Campaign.Watchdog.expired ());
  Alcotest.(check (option (float 1e9))) "no remaining without deadline" None
    (Campaign.Watchdog.remaining ());
  Alcotest.check_raises "expired deadline raises at the next poll"
    (Campaign.Watchdog.Timeout 0.) (fun () ->
      Campaign.Watchdog.with_deadline ~seconds:0. (fun () ->
          Campaign.Watchdog.check ()));
  Campaign.Watchdog.with_deadline ~seconds:3600. (fun () ->
      Campaign.Watchdog.check ();
      (match Campaign.Watchdog.remaining () with
      | Some r -> Alcotest.(check bool) "remaining is positive" true (r > 0.)
      | None -> Alcotest.fail "deadline should be installed");
      (* Deadlines nest: the inner one expires, the outer one is
         restored. *)
      (try
         Campaign.Watchdog.with_deadline ~seconds:0. (fun () ->
             Campaign.Watchdog.check ());
         Alcotest.fail "inner deadline should have fired"
       with Campaign.Watchdog.Timeout b ->
         Alcotest.(check (float 0.)) "payload is the budget" 0. b);
      Campaign.Watchdog.check ());
  Alcotest.(check bool) "deadline uninstalled on exit" false
    (Campaign.Watchdog.expired ())

(* --- Campaign orchestration ------------------------------------------------ *)

let split_rngs ~seed n =
  let master = Util.Rng.create seed in
  Array.init n (fun _ -> Util.Rng.split master)

let campaign_work _i rng =
  [| Util.Rng.float rng 1.; Util.Rng.uniform rng 1. 2. |]

let campaign_key _i rng =
  Campaign.Digest.tagged ~tag:"test-campaign" ~state:(Util.Rng.state rng)

let campaign_jobs_deterministic () =
  let run jobs =
    Campaign.run ~jobs ~key:campaign_key ~work:campaign_work
      (split_rngs ~seed:11 64)
  in
  let base = Campaign.results (run 1) in
  List.iter
    (fun jobs ->
      let got = Campaign.results (run jobs) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical to jobs=1" jobs)
        true (got = base))
    [ 2; 8 ]

let campaign_progress_and_stats () =
  let ticks = Atomic.make 0 in
  let o =
    Campaign.run ~jobs:4
      ~on_trial:(fun ~completed:_ ~total:_ -> Atomic.incr ticks)
      ~key:campaign_key ~work:campaign_work (split_rngs ~seed:3 32)
  in
  Alcotest.(check int) "one tick per trial" 32 (Atomic.get ticks);
  Alcotest.(check int) "all computed" 32 o.Campaign.stats.Campaign.computed;
  Alcotest.(check int) "total" 32 o.Campaign.stats.Campaign.total;
  Alcotest.(check int) "none failed" 0 o.Campaign.stats.Campaign.failed;
  Alcotest.(check int) "none retried" 0 o.Campaign.stats.Campaign.retried;
  Alcotest.(check int) "none quarantined" 0
    o.Campaign.stats.Campaign.quarantined;
  let r = Campaign.report o.Campaign.stats in
  Alcotest.(check bool) "report mentions the split" true (String.length r > 0);
  Alcotest.(check bool) "clean report omits failure counters" false
    (contains r "failed")

(* One journal handle shared by several campaigns, as a figure run
   shares it: the second campaign replays the first one's trials from
   memory and writes nothing. *)
let campaign_shared_journal_memo () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let journal = Campaign.Journal.create ~path in
  let rngs = split_rngs ~seed:5 16 in
  let run () =
    Campaign.run ~jobs:2 ~journal ~key:campaign_key ~work:campaign_work rngs
  in
  let first = run () in
  Alcotest.(check int) "cold: all computed" 16 first.Campaign.stats.Campaign.computed;
  Alcotest.(check int) "cold: no journal hit" 0
    first.Campaign.stats.Campaign.journal_hits;
  let second = run () in
  Alcotest.(check int) "warm: nothing computed" 0 second.Campaign.stats.Campaign.computed;
  Alcotest.(check int) "warm: all journal hits" 16
    second.Campaign.stats.Campaign.journal_hits;
  Alcotest.(check bool) "warm results identical" true
    (Campaign.results second = Campaign.results first);
  Alcotest.(check int) "each trial journalled once" 16
    (List.length (Campaign.Journal.load ~path));
  Sys.remove path

let campaign_journal_resume () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let rngs = split_rngs ~seed:23 12 in
  let run () =
    let journal = Campaign.Journal.create ~path in
    Campaign.run ~jobs:3 ~journal ~key:campaign_key ~work:campaign_work rngs
  in
  let first = run () in
  Alcotest.(check int) "cold: all computed" 12 first.Campaign.stats.Campaign.computed;
  (* Simulate an interrupted campaign: drop the last journalled trial. *)
  let lines = Campaign.Journal.load ~path in
  let keep = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  Sys.remove path;
  let partial = Campaign.Journal.create ~path in
  List.iter (Campaign.Journal.append partial) keep;
  let resumed = run () in
  Alcotest.(check int) "resume: one trial recomputed" 1
    resumed.Campaign.stats.Campaign.computed;
  Alcotest.(check int) "resume: the rest replayed" 11
    resumed.Campaign.stats.Campaign.journal_hits;
  Alcotest.(check bool) "resume results identical" true
    (Campaign.results resumed = Campaign.results first);
  Alcotest.(check int) "journal complete again" 12
    (List.length (Campaign.Journal.load ~path));
  Sys.remove path

(* --- Trial isolation: abort / skip / retry --------------------------------- *)

let campaign_abort_raises () =
  let work i _rng = if i = 5 then invalid_arg "boom" else [| float_of_int i |] in
  List.iter
    (fun jobs ->
      match Campaign.run ~jobs ~key:campaign_key ~work (split_rngs ~seed:1 10) with
      | _ -> Alcotest.fail "abort policy must raise"
      | exception Campaign.Trial_failed (trial, f) ->
        Alcotest.(check int) "failing trial index" 5 trial;
        Alcotest.(check int) "single attempt under abort" 1 f.Campaign.attempts;
        Alcotest.(check bool) "error names the exception" true
          (contains f.Campaign.error "boom"))
    [ 1; 4 ]

let campaign_abort_smallest_index () =
  let work i _rng =
    if i = 2 || i = 7 then failwith (Printf.sprintf "t%d" i)
    else [| float_of_int i |]
  in
  List.iter
    (fun jobs ->
      match Campaign.run ~jobs ~key:campaign_key ~work (split_rngs ~seed:1 10) with
      | _ -> Alcotest.fail "abort policy must raise"
      | exception (Campaign.Trial_failed (trial, _) as e) ->
        Alcotest.(check int) "smallest failing index wins" 2 trial;
        let printed = Printexc.to_string e in
        Alcotest.(check bool) "printer names the trial" true
          (contains printed "trial 2");
        Alcotest.(check bool) "printer carries the error" true
          (contains printed "t2"))
    [ 1; 4 ]

let campaign_skip_isolates_failure () =
  let n = 16 in
  let rngs = split_rngs ~seed:11 n in
  let base =
    Campaign.results
      (Campaign.run ~key:campaign_key ~work:campaign_work rngs)
  in
  let work i rng = if i = 5 then failwith "flaky" else campaign_work i rng in
  List.iter
    (fun jobs ->
      let o = Campaign.run ~jobs ~on_failure:`Skip ~key:campaign_key ~work rngs in
      Alcotest.(check int)
        (Printf.sprintf "one failure (jobs=%d)" jobs)
        1 o.Campaign.stats.Campaign.failed;
      Alcotest.(check int) "skip never retries" 0
        o.Campaign.stats.Campaign.retried;
      (match Campaign.failures o with
      | [ (5, f) ] ->
        Alcotest.(check int) "one attempt" 1 f.Campaign.attempts;
        Alcotest.(check bool) "failure records the error" true
          (contains f.Campaign.error "flaky")
      | _ -> Alcotest.fail "expected exactly the hole at trial 5");
      Array.iteri
        (fun i -> function
          | Campaign.Ok v ->
            Alcotest.(check bool)
              (Printf.sprintf "surviving payload %d bit-identical" i)
              true (v = base.(i))
          | Campaign.Failed _ ->
            Alcotest.(check int) "the only hole is trial 5" 5 i)
        o.Campaign.outcomes;
      Alcotest.(check int) "ok_results omits only the hole" (n - 1)
        (Array.length (Campaign.ok_results o));
      Alcotest.check_raises "results refuses a holed campaign"
        (Campaign.Trial_failed
           (5, (match Campaign.failures o with [ (_, f) ] -> f | _ -> assert false)))
        (fun () -> ignore (Campaign.results o));
      Alcotest.(check bool) "report shows the failure counters" true
        (contains (Campaign.report o.Campaign.stats) "1 failed"))
    [ 1; 2; 8 ]

let campaign_retry_eventually_succeeds () =
  let rngs = split_rngs ~seed:11 8 in
  let base =
    Campaign.results (Campaign.run ~key:campaign_key ~work:campaign_work rngs)
  in
  (* Trial 3 fails on its first two attempts and succeeds on the third;
     payloads must still be bit-identical to the fault-free run because
     every attempt restarts from the pristine substream. *)
  let attempts = Atomic.make 0 in
  let work i rng =
    if i = 3 && Atomic.fetch_and_add attempts 1 < 2 then failwith "transient"
    else campaign_work i rng
  in
  let o =
    Campaign.run ~on_failure:`Retry ~max_retries:3 ~key:campaign_key ~work rngs
  in
  Alcotest.(check int) "no failure" 0 o.Campaign.stats.Campaign.failed;
  Alcotest.(check int) "two retries" 2 o.Campaign.stats.Campaign.retried;
  Alcotest.(check bool) "payloads bit-identical after retries" true
    (Campaign.results o = base)

let campaign_retry_exhaustion () =
  let work i rng = if i = 4 then failwith "always" else campaign_work i rng in
  let o =
    Campaign.run ~on_failure:`Retry ~max_retries:2 ~key:campaign_key ~work
      (split_rngs ~seed:7 8)
  in
  Alcotest.(check int) "hole recorded" 1 o.Campaign.stats.Campaign.failed;
  Alcotest.(check int) "budget consumed" 2 o.Campaign.stats.Campaign.retried;
  match Campaign.failures o with
  | [ (4, f) ] -> Alcotest.(check int) "1 + max_retries attempts" 3 f.Campaign.attempts
  | _ -> Alcotest.fail "expected exactly the hole at trial 4"

let campaign_trial_timeout () =
  let rngs = split_rngs ~seed:2 6 in
  let o =
    Campaign.run ~jobs:2 ~on_failure:`Skip ~trial_timeout:0.
      ~key:campaign_key ~work:campaign_work rngs
  in
  Alcotest.(check int) "every trial timed out" 6
    o.Campaign.stats.Campaign.failed;
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "failure names the deadline" true
        (contains f.Campaign.error "deadline"))
    (Campaign.failures o);
  (* Timeouts obey the retry budget like any other failure. *)
  let o =
    Campaign.run ~on_failure:`Retry ~max_retries:1 ~trial_timeout:0.
      ~key:campaign_key ~work:campaign_work (split_rngs ~seed:2 2)
  in
  match Campaign.failures o with
  | (_, f) :: _ -> Alcotest.(check int) "retried once then gave up" 2 f.Campaign.attempts
  | [] -> Alcotest.fail "expired deadline should fail the trials"

(* --- Deterministic fault injection ----------------------------------------- *)

let fault_decisions_are_pure () =
  let f = Campaign.Fault.create ~task_exn:0.5 ~seed:13 () in
  let probe () =
    Campaign.Fault.with_harness f (fun () ->
        List.init 32 (fun trial ->
            match Campaign.Fault.task_point ~trial ~attempt:0 with
            | () -> false
            | exception Campaign.Fault.Injected _ -> true))
  in
  let first = probe () in
  Alcotest.(check (list bool)) "same schedule on re-arm" first (probe ());
  Alcotest.(check bool) "some trials affected" true (List.mem true first);
  Alcotest.(check bool) "some trials unaffected" true (List.mem false first);
  Alcotest.(check bool) "harness disarmed outside with_harness" true
    (Campaign.Fault.active () = None);
  (* Unarmed instrumentation points are no-ops. *)
  Campaign.Fault.task_point ~trial:0 ~attempt:0;
  Campaign.Fault.store_point ~site:`Journal ~key:"k";
  Alcotest.(check string) "mangle is identity when unarmed" "line"
    (Campaign.Fault.mangle ~site:`Journal ~key:"k" "line")

let fault_retry_deterministic_across_jobs () =
  let rngs = split_rngs ~seed:11 16 in
  let base =
    Campaign.results (Campaign.run ~key:campaign_key ~work:campaign_work rngs)
  in
  (* Affected trials fail on their first attempt only, so under `Retry`
     every trial eventually succeeds; the injected schedule is a pure
     function of (seed, trial), hence identical at any jobs count. *)
  let run jobs =
    Campaign.run ~jobs ~on_failure:`Retry ~max_retries:2
      ~fault:(Campaign.Fault.create ~task_exn:0.4 ~fail_attempts:1 ~seed:77 ())
      ~key:campaign_key ~work:campaign_work rngs
  in
  let first = run 1 in
  Alcotest.(check int) "all trials recovered" 0
    first.Campaign.stats.Campaign.failed;
  Alcotest.(check bool) "some retries happened" true
    (first.Campaign.stats.Campaign.retried > 0);
  Alcotest.(check bool) "recovered payloads = fault-free payloads" true
    (Campaign.results first = base);
  List.iter
    (fun jobs ->
      let o = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "payloads bit-identical (jobs=%d)" jobs)
        true
        (Campaign.results o = Campaign.results first);
      Alcotest.(check int)
        (Printf.sprintf "same retry count (jobs=%d)" jobs)
        first.Campaign.stats.Campaign.retried o.Campaign.stats.Campaign.retried)
    [ 2; 8 ]

let fault_store_exn_retry_recovers () =
  let rngs = split_rngs ~seed:9 8 in
  let base =
    Campaign.results (Campaign.run ~key:campaign_key ~work:campaign_work rngs)
  in
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let journal = Campaign.Journal.create ~path in
  (* Every key's first journal append raises; the retry recomputes and
     the second append (op 2 for the key) goes through. *)
  let o =
    Campaign.run ~jobs:2 ~journal ~on_failure:`Retry ~max_retries:2
      ~fault:(Campaign.Fault.create ~store_exn:1.0 ~store_attempts:1 ~seed:5 ())
      ~key:campaign_key ~work:campaign_work rngs
  in
  Alcotest.(check int) "no permanent failure" 0 o.Campaign.stats.Campaign.failed;
  Alcotest.(check int) "one retry per trial" 8 o.Campaign.stats.Campaign.retried;
  Alcotest.(check bool) "payloads unaffected by store faults" true
    (Campaign.results o = base);
  Alcotest.(check int) "recomputed once per trial" 16
    o.Campaign.stats.Campaign.computed;
  Alcotest.(check int) "journal holds every trial" 8
    (Campaign.Journal.length journal);
  let on_disk = Campaign.Journal.load ~path in
  Alcotest.(check int) "each trial on disk once" 8 (List.length on_disk);
  Alcotest.(check (list int)) "every trial journalled"
    (List.init 8 Fun.id)
    (List.sort compare (List.map (fun e -> e.Campaign.Journal.trial) on_disk));
  Sys.remove path

let fault_journal_store_exn () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let j = Campaign.Journal.create ~path in
  let f = Campaign.Fault.create ~store_exn:1.0 ~store_attempts:1 ~seed:3 () in
  Campaign.Fault.with_harness f (fun () ->
      (try
         Campaign.Journal.append j
           { Campaign.Journal.trial = 0; key = "aa"; values = [| 1. |] };
         Alcotest.fail "first append should raise"
       with Campaign.Fault.Injected _ -> ());
      (* The failed append must not have committed anything. *)
      Alcotest.(check int) "nothing journalled" 0 (Campaign.Journal.length j);
      (* Second op on the same key passes the bound. *)
      Campaign.Journal.append j
        { Campaign.Journal.trial = 0; key = "aa"; values = [| 1. |] });
  Alcotest.(check int) "entry journalled after retry" 1
    (Campaign.Journal.length j);
  Sys.remove path

let fault_torn_journal_quarantined_on_resume () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let n = 12 in
  let rngs = split_rngs ~seed:23 n in
  let base =
    Campaign.results (Campaign.run ~key:campaign_key ~work:campaign_work rngs)
  in
  let fault = Campaign.Fault.create ~torn_write:0.5 ~seed:41 () in
  let o1 =
    Campaign.run ~jobs:2 ~journal:(Campaign.Journal.create ~path) ~fault
      ~key:campaign_key ~work:campaign_work rngs
  in
  (* Torn writes only damage the file, never the running campaign. *)
  Alcotest.(check bool) "first run unaffected" true
    (Campaign.results o1 = base);
  let j2 = Campaign.Journal.create ~path in
  let torn = Campaign.Journal.quarantined j2 in
  Alcotest.(check bool) "harness tore some lines" true (torn > 0);
  Alcotest.(check bool) "harness left some lines intact" true (torn < n);
  let o2 =
    Campaign.run ~jobs:3 ~journal:j2 ~key:campaign_key ~work:campaign_work rngs
  in
  Alcotest.(check bool) "resumed payloads bit-identical" true
    (Campaign.results o2 = base);
  Alcotest.(check int) "only the torn trials recomputed" torn
    o2.Campaign.stats.Campaign.computed;
  Alcotest.(check int) "intact trials replayed" (n - torn)
    o2.Campaign.stats.Campaign.journal_hits;
  Alcotest.(check int) "stats surface the quarantine" torn
    o2.Campaign.stats.Campaign.quarantined;
  Alcotest.(check bool) "report mentions the quarantine" true
    (contains (Campaign.report o2.Campaign.stats) "quarantined");
  (* The resumed run healed the journal. *)
  Alcotest.(check int) "journal complete and clean again" n
    (Campaign.Journal.quarantined (Campaign.Journal.create ~path) * 0
    + List.length (Campaign.Journal.load ~path));
  Sys.remove path;
  remove_if_exists (Campaign.Journal.quarantine_path path)

(* --- Runner integration ---------------------------------------------------- *)

let sweep_gen v rng =
  {
    Experiments.Runner.platform = Model.Platform.paper_default;
    apps =
      Model.Workload.generate ~rng Model.Workload.NpbSynth (int_of_float v);
  }

let sweep_policies =
  Sched.Heuristics.[ dominant_min_ratio; Fair; ZeroCache; RandomPart ]

let sweep_fig ?(on_failure = `Abort) ?fault ~jobs ~journal () =
  let config =
    {
      Experiments.Runner.default_config with
      trials = 4;
      seed = 99;
      jobs;
      journal;
      on_failure;
      fault;
    }
  in
  Experiments.Runner.sweep ~config ~id:"campaign-test" ~title:"t" ~xlabel:"n"
    ~values:[ 2.; 6. ] ~gen:sweep_gen ~policies:sweep_policies ()

let runner_jobs_identical () =
  let base = sweep_fig ~jobs:1 ~journal:None () in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep rows jobs=%d = jobs=1" jobs)
        true
        (sweep_fig ~jobs ~journal:None () = base))
    [ 2; 8 ]

let runner_journal_resume () =
  let path = tmp_path ".jsonl" in
  Sys.remove path;
  let base = sweep_fig ~jobs:1 ~journal:None () in
  let cold =
    sweep_fig ~jobs:2 ~journal:(Some (Campaign.Journal.create ~path)) ()
  in
  Alcotest.(check bool) "journalled run matches plain run" true (cold = base);
  let journalled = List.length (Campaign.Journal.load ~path) in
  Alcotest.(check int) "2 points x 4 trials journalled" 8 journalled;
  (* A rerun replays everything from the journal and changes nothing. *)
  let warm =
    sweep_fig ~jobs:4 ~journal:(Some (Campaign.Journal.create ~path)) ()
  in
  Alcotest.(check bool) "replayed run identical" true (warm = base);
  Alcotest.(check int) "journal unchanged" journalled
    (List.length (Campaign.Journal.load ~path));
  Sys.remove path

let runner_skip_annotates_holes () =
  let fault = Campaign.Fault.create ~task_exn:0.9 ~seed:19 () in
  let fig = sweep_fig ~on_failure:`Skip ~fault ~jobs:2 ~journal:None () in
  Alcotest.(check bool) "title announces the skipped trials" true
    (contains fig.Experiments.Report.title "failed trial(s) skipped");
  (* The injected schedule is pure, so the holed figure is itself
     deterministic across jobs counts. *)
  Alcotest.(check bool) "holed sweep identical across jobs" true
    (sweep_fig ~on_failure:`Skip ~fault ~jobs:8 ~journal:None () = fig)

let runner_repartition_jobs_identical () =
  let data jobs =
    let config =
      { Experiments.Runner.default_config with trials = 3; seed = 7; jobs }
    in
    Experiments.Runner.repartition ~config ~values:[ 4.; 8. ] ~gen:sweep_gen
      ~policies:Sched.Heuristics.[ dominant_min_ratio; Fair; ZeroCache ]
      ()
  in
  Alcotest.(check bool) "repartition jobs=4 = jobs=1" true (data 4 = data 1)

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          test "map_ordered preserves input order" pool_ordering;
          test "empty and singleton arrays" pool_empty_and_singleton;
          test "worker exceptions re-raised deterministically"
            pool_exception_propagation;
          test "map_outcomes isolates failing tasks" pool_outcome_isolation;
          test "a pool can run several maps" pool_reuse;
        ] );
      ( "digest",
        [
          test "keys are stable" digest_stable;
          test "keys are content-sensitive" digest_sensitive;
        ] );
      ( "journal",
        [
          test "append / replay round-trip" journal_roundtrip;
          test "torn trailing line is quarantined on resume"
            journal_crash_resume;
          test "a line without its checksum is quarantined"
            journal_unsummed_line_quarantined;
          qtest journal_corrupt_byte_prop;
          qtest journal_truncate_prop;
        ] );
      ( "watchdog", [ test "cooperative deadlines" watchdog_basics ] );
      ( "campaign",
        [
          test "results bit-identical across jobs counts"
            campaign_jobs_deterministic;
          test "progress callback and stats" campaign_progress_and_stats;
          test "memo table short-circuits repeat runs"
            campaign_shared_journal_memo;
          test "journal checkpoint resumes an interrupted run"
            campaign_journal_resume;
        ] );
      ( "isolation",
        [
          test "abort raises Trial_failed with the failure" campaign_abort_raises;
          test "abort picks the smallest failing index"
            campaign_abort_smallest_index;
          test "skip records a hole, other payloads bit-identical"
            campaign_skip_isolates_failure;
          test "retry recovers transient failures bit-identically"
            campaign_retry_eventually_succeeds;
          test "retry exhaustion records the attempts"
            campaign_retry_exhaustion;
          test "trial deadline fails hung trials cooperatively"
            campaign_trial_timeout;
        ] );
      ( "faults",
        [
          test "injection schedule is pure and re-armable"
            fault_decisions_are_pure;
          test "task faults + retry deterministic across jobs"
            fault_retry_deterministic_across_jobs;
          test "journal store faults recovered by retry"
            fault_store_exn_retry_recovers;
          test "journal store faults do not commit partial state"
            fault_journal_store_exn;
          test "torn journal writes quarantined and recomputed on resume"
            fault_torn_journal_quarantined_on_resume;
        ] );
      ( "runner",
        [
          test "sweep rows identical across jobs counts" runner_jobs_identical;
          test "sweep checkpoint/resume through the journal"
            runner_journal_resume;
          test "skipped trials annotate the figure title"
            runner_skip_annotates_holes;
          test "repartition identical across jobs counts"
            runner_repartition_jobs_identical;
        ] );
    ]
