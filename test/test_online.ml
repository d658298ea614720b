(* Tests for the online co-scheduling subsystem: workload streams, live
   state, warm-started incremental re-solvers, policies and the service
   loop.  The load-bearing properties: the warm partition and the
   warm-seeded makespan root give the same answers as the cold
   baselines, and every warm re-solve of a service run commits the
   allocation the cold pipeline computes for the same residual instance. *)

let check_float = Alcotest.(check (float 1e-9))
let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let stream_of ~seed ~load n =
  Online.Workload_stream.poisson_load ~rng:(Util.Rng.create seed) ~platform
    ~load ~dataset:Model.Workload.NpbSynth n

let rel_close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* --- Workload_stream --------------------------------------------------- *)

let stream_rejects_decreasing_times () =
  let app = (synth ~seed:1 1).(0) in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Online.Workload_stream.of_events
            [
              { Online.Workload_stream.time = 2.; kind = Arrival app };
              { Online.Workload_stream.time = 1.; kind = Arrival app };
            ]);
       false
     with Invalid_argument _ -> true)

let stream_rejects_dangling_departure () =
  let app = (synth ~seed:1 1).(0) in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Online.Workload_stream.of_events
            [
              { Online.Workload_stream.time = 1.; kind = Arrival app };
              { Online.Workload_stream.time = 2.; kind = Departure 1 };
            ]);
       false
     with Invalid_argument _ -> true)

let stream_poisson_deterministic () =
  let times s =
    List.map
      (fun ev -> ev.Online.Workload_stream.time)
      (Online.Workload_stream.events s)
  in
  Alcotest.(check (list (float 0.)))
    "same seed, same stream"
    (times (stream_of ~seed:5 ~load:4. 20))
    (times (stream_of ~seed:5 ~load:4. 20))

let stream_poisson_counts () =
  let s = stream_of ~seed:6 ~load:4. 17 in
  Alcotest.(check int) "arrivals" 17 (Online.Workload_stream.arrivals s);
  Alcotest.(check int) "length" 17 (Online.Workload_stream.length s);
  let rec nondecreasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      a.Online.Workload_stream.time <= b.Online.Workload_stream.time
      && nondecreasing rest
  in
  Alcotest.(check bool) "time order" true
    (nondecreasing (Online.Workload_stream.events s))

(* --- Policy ------------------------------------------------------------ *)

let policy_of_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check string)
        "roundtrip" (Online.Policy.name p)
        (Online.Policy.name (Online.Policy.of_string (Online.Policy.name p))))
    [ Online.Policy.Every_event; Batched 7; Threshold 0.25 ]

let policy_rejects_bad () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try
           ignore (Online.Policy.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "batched:0"; "threshold:-1"; "threshold:nan"; "nonsense"; "batched:x" ]

let policy_should_resolve () =
  let degradation_calls = ref 0 in
  let degradation () =
    incr degradation_calls;
    0.5
  in
  Alcotest.(check bool) "every-event fires" true
    (Online.Policy.should_resolve Every_event ~events_pending:0 ~degradation);
  Alcotest.(check bool) "batched waits" false
    (Online.Policy.should_resolve (Batched 3) ~events_pending:2 ~degradation);
  Alcotest.(check bool) "batched fires" true
    (Online.Policy.should_resolve (Batched 3) ~events_pending:3 ~degradation);
  Alcotest.(check int) "degradation not consulted" 0 !degradation_calls;
  Alcotest.(check bool) "threshold fires" true
    (Online.Policy.should_resolve (Threshold 0.1) ~events_pending:0 ~degradation);
  Alcotest.(check bool) "threshold waits" false
    (Online.Policy.should_resolve (Threshold 0.6) ~events_pending:9 ~degradation)

(* --- State ------------------------------------------------------------- *)

let state_integrates_progress () =
  let state = Online.State.create platform in
  let app = (synth ~seed:2 1).(0) in
  let job = Online.State.add state ~app in
  ignore
    (Online.State.apply state [| job |]
       [| { Model.Schedule.procs = platform.Model.Platform.p; cache = 1. } |]);
  let exe =
    Model.Exec_model.exe ~app ~platform ~p:platform.Model.Platform.p ~x:1.
  in
  Online.State.advance state ~to_:(0.25 *. exe);
  check_float "quarter done" 0.75 (Online.State.remaining job);
  check_float "remaining time" (0.75 *. exe)
    (Online.State.remaining_time ~platform job);
  Online.State.advance state ~to_:exe;
  Alcotest.(check bool) "done" true (Online.State.remaining job <= 1e-9);
  check_float "busy integral" (platform.Model.Platform.p *. exe)
    (Online.State.busy_integral state)

let state_lifecycle () =
  let state = Online.State.create platform in
  let apps = synth ~seed:3 3 in
  let jobs = Array.map (fun app -> Online.State.add state ~app) apps in
  Alcotest.(check int) "all queued" 3 (Online.State.queued state);
  ignore
    (Online.State.apply state (Online.State.live state)
       [|
         { Model.Schedule.procs = 4.; cache = 0.5 };
         { Model.Schedule.procs = 4.; cache = 0.5 };
         { Model.Schedule.procs = 0.; cache = 0. };
       |]);
  Alcotest.(check int) "two running" 2 (Online.State.running state);
  Online.State.complete state jobs.(0);
  Online.State.cancel state jobs.(2);
  Alcotest.(check int) "one live" 1 (Array.length (Online.State.live state));
  Alcotest.(check bool) "finish recorded" true (Online.State.finish jobs.(0) <> None);
  Alcotest.(check bool) "cancel recorded" true (Online.State.cancelled jobs.(2));
  Alcotest.(check int) "retired in order" 2
    (List.length (Online.State.finished state))

let state_counts_migrations () =
  let state = Online.State.create platform in
  let app = (synth ~seed:4 1).(0) in
  let job = Online.State.add state ~app in
  let jobs = [| job |] in
  let alloc p x = [| { Model.Schedule.procs = p; cache = x } |] in
  Alcotest.(check int) "first allocation is free" 0
    (Online.State.apply state jobs (alloc 8. 0.5));
  Alcotest.(check int) "unchanged allocation is free" 0
    (Online.State.apply state jobs (alloc 8. 0.5));
  Alcotest.(check int) "a real change migrates" 1
    (Online.State.apply state jobs (alloc 6. 0.5));
  Alcotest.(check int) "per-job count" 1 (Online.State.migrations job)

let state_detects_oversubscription () =
  let state = Online.State.create platform in
  let apps = synth ~seed:5 2 in
  let jobs = Array.map (fun app -> Online.State.add state ~app) apps in
  ignore
    (Online.State.apply state jobs
       [|
         { Model.Schedule.procs = platform.Model.Platform.p; cache = 0.7 };
         { Model.Schedule.procs = 1.; cache = 0.7 };
       |]);
  Alcotest.(check bool) "violation reported" true
    (Online.State.conservation_violation state <> None)

(* --- Incremental: warm == cold ----------------------------------------- *)

let qcheck_cold_partition_matches_builder =
  QCheck.Test.make
    ~name:"counted cold partition == Partition_builder Dominant/MinRatio"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 1 40))
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let reference =
        Sched.Partition_builder.build Sched.Partition_builder.Dominant
          Sched.Choice.MinRatio
          ~rng:(Util.Rng.create 0) ~platform ~apps
      in
      Online.Incremental.cold_partition ~platform apps = reference)

(* The columns of an instance at cache fractions [x], as the online
   entry of the root-finder reads them. *)
let columns apps x =
  ( Array.map (fun app -> app.Model.App.s) apps,
    Sched.Equalize.work_costs ~platform ~apps ~x )

let qcheck_warm_partition_matches_cold =
  QCheck.Test.make
    ~name:"warm sorted-suffix partition == cold eviction loop" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 1 40))
    (fun (seed, n) ->
      let st = Online.State.create platform in
      Array.iter (fun app -> ignore (Online.State.add st ~app)) (synth ~seed n);
      let inc = Online.Incremental.create () in
      ignore (Online.Incremental.solve_state inc ~elapsed:0. ~state:st ());
      let jobs = Online.State.live st in
      let cold =
        Online.Incremental.cold_partition ~platform
          (Array.map Online.State.remaining_app jobs)
      in
      Array.for_all2 (fun j c -> Online.State.cache j > 0. = c) jobs cold)

let qcheck_equalize_warm_seed_same_root =
  QCheck.Test.make
    ~name:"Equalize with a warm seed finds the cold root" ~count:100
    QCheck.(
      triple (int_bound 10_000) (int_range 2 24) (float_range 0.25 4.))
    (fun (seed, n, scale) ->
      let apps = synth ~seed n in
      let subset = Online.Incremental.cold_partition ~platform apps in
      let x = Theory.Dominant.cache_allocation_capped ~platform ~apps subset in
      let cold = Sched.Equalize.solve_makespan ~platform ~apps x in
      let s, costs = columns apps x in
      let warm =
        Sched.Equalize.solve_cols ~warm:(cold *. scale) ~platform ~s ~costs ~n
          ()
      in
      rel_close cold warm)

let warm_seed_saves_iterations () =
  let apps = synth ~seed:11 16 in
  let subset = Online.Incremental.cold_partition ~platform apps in
  let x = Theory.Dominant.cache_allocation_capped ~platform ~apps subset in
  let s, costs = columns apps x in
  let n = Array.length apps in
  let cold_iters = ref 0 in
  let cold =
    Sched.Equalize.solve_cols ~iters:cold_iters ~platform ~s ~costs ~n ()
  in
  let warm_iters = ref 0 in
  ignore
    (Sched.Equalize.solve_cols ~warm:(cold *. 1.01) ~iters:warm_iters ~platform
       ~s ~costs ~n ());
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d" !warm_iters !cold_iters)
    true
    (!warm_iters < !cold_iters)

(* --- Service ------------------------------------------------------------ *)

let run_service ~policy stream =
  let config = { Online.Service.default_config with policy; validate = true } in
  Online.Service.run ~config ~platform stream

(* Replay [stream] through a live instance as {!Online.Service.run} does,
   calling [on_resolve] with the instance after every re-solve. *)
let replay ?pool ?shard_min ~policy ~on_resolve stream =
  let config = { Online.Service.default_config with policy; validate = true } in
  let lv = ref None in
  let listener = function
    | Online.Service.Resolved _ -> on_resolve (Option.get !lv)
    | Online.Service.Completed _ -> ()
  in
  let live =
    Online.Service.live_create ~config ?pool ?shard_min ~listener ~platform ()
  in
  lv := Some live;
  List.iter
    (fun { Online.Workload_stream.time; kind } ->
      match kind with
      | Online.Workload_stream.Arrival app ->
        ignore (Online.Service.submit live ~at:time app : Online.State.job)
      | Departure id -> ignore (Online.Service.cancel live ~at:time ~id : bool))
    (Online.Workload_stream.events stream);
  Online.Service.drain live;
  (Online.Service.live_report live).Online.Service.metrics

(* The cold oracle of one warm re-solve: [Online.Incremental.solve] on the
   residual instance the service just solved, compared with what the
   service installed — makespan, every processor share and cache
   fraction to 1e-9 relative, and the cached set exactly. *)
let matches_cold_oracle inc lv =
  let jobs = Online.State.live (Online.Service.live_state lv) in
  let apps = Array.map Online.State.remaining_app jobs in
  let schedule, k = Online.Incremental.solve inc ~platform ~apps in
  let cold = schedule.Model.Schedule.allocs in
  (match Online.Service.last_makespan lv with
  | Some warm_k -> rel_close warm_k k
  | None -> false)
  && Array.for_all2
       (fun j (a : Model.Schedule.alloc) ->
         rel_close (Online.State.procs j) a.procs
         && rel_close (Online.State.cache j) a.cache
         && (Online.State.cache j > 0.) = (a.cache > 0.))
       jobs cold

let service_completes_all_jobs () =
  let stream = stream_of ~seed:21 ~load:4. 20 in
  List.iter
    (fun policy ->
      let report = run_service ~policy stream in
      let m = report.Online.Service.metrics in
      Alcotest.(check int)
        (Online.Policy.name policy ^ " completes everything")
        20 m.Online.Metrics.completed;
      Alcotest.(check int) "nothing cancelled" 0 m.Online.Metrics.cancelled;
      Alcotest.(check bool) "utilization in (0,1]" true
        (m.Online.Metrics.utilization > 0.
        && m.Online.Metrics.utilization <= 1. +. 1e-9);
      Alcotest.(check bool) "stretch >= 1" true
        (m.Online.Metrics.mean_stretch >= 1. -. 1e-9))
    Online.Policy.defaults

let service_handles_departures () =
  let apps = synth ~seed:22 3 in
  let exe0 =
    Model.Exec_model.exe ~app:apps.(0) ~platform ~p:platform.Model.Platform.p
      ~x:1.
  in
  let stream =
    Online.Workload_stream.of_events
      [
        { Online.Workload_stream.time = 0.; kind = Arrival apps.(0) };
        { Online.Workload_stream.time = 0.1 *. exe0; kind = Arrival apps.(1) };
        { Online.Workload_stream.time = 0.2 *. exe0; kind = Arrival apps.(2) };
        { Online.Workload_stream.time = 0.3 *. exe0; kind = Departure 1 };
      ]
  in
  let report = run_service ~policy:Online.Policy.Every_event stream in
  let m = report.Online.Service.metrics in
  Alcotest.(check int) "two complete" 2 m.Online.Metrics.completed;
  Alcotest.(check int) "one cancelled" 1 m.Online.Metrics.cancelled

let service_deterministic () =
  let stream = stream_of ~seed:23 ~load:4. 15 in
  let run () =
    (run_service ~policy:(Online.Policy.Batched 3) stream)
      .Online.Service.metrics
  in
  Alcotest.(check bool) "bit-identical metrics" true (run () = run ())

let qcheck_warm_matches_cold_oracle =
  (* The headline property: warm-started re-solves change nothing but the
     work done — every allocation the service commits is the cold
     pipeline's on the same residual instance, under each re-solve
     policy. *)
  QCheck.Test.make ~name:"warm re-solves == cold oracle" ~count:20
    QCheck.(
      pair (int_bound 10_000)
        (oneofl
           [
             Online.Policy.Every_event; Batched 1; Batched 4; Threshold 0.;
             Threshold 0.1;
           ]))
    (fun (seed, policy) ->
      let stream = stream_of ~seed ~load:3. 12 in
      let inc = Online.Incremental.create () in
      let ok = ref true in
      let m =
        replay ~policy stream ~on_resolve:(fun lv ->
            if not (matches_cold_oracle inc lv) then ok := false)
      in
      !ok
      && m.Online.Metrics.resolves
         = (Online.Incremental.counters inc).Online.Incremental.resolves
      && m.Online.Metrics.completed = 12)

let warm_service_saves_solver_work () =
  let stream = stream_of ~seed:25 ~load:6. 60 in
  let inc = Online.Incremental.create () in
  let m =
    replay ~policy:Online.Policy.Every_event stream ~on_resolve:(fun lv ->
        if not (matches_cold_oracle inc lv) then Alcotest.fail "cold oracle")
  in
  let warm = m.Online.Metrics.solver_iters in
  let cold = (Online.Incremental.counters inc).Online.Incremental.solver_iters in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d" warm cold)
    true (warm < cold)

(* --- Sharded re-solve passes ------------------------------------------- *)

(* Drive one churned instance through two columnar re-solves and capture
   everything the solver wrote.  [jobs = 0] means no pool at all; the
   captured trace must be structurally identical — float bit-compare via
   (=) — whatever the pool size, because every sharded pass writes
   disjoint positions and every reduction keeps a pool-independent
   association. *)
let sharded_trace ~n ~jobs () =
  let run pool =
    let state = Online.State.create platform in
    let inc = Online.Incremental.create () in
    let apps = synth ~seed:31 (n + (n / 4) + 1) in
    for i = 0 to n - 1 do
      ignore (Online.State.add state ~app:apps.(i))
    done;
    let solve ~elapsed =
      Online.Incremental.solve_state inc ?pool ~shard_min:1 ~elapsed ~state ()
    in
    let k1, m1 = solve ~elapsed:0. in
    let dt = 0.25 *. Online.State.min_remaining_time state in
    Online.State.advance state ~to_:dt;
    Array.iteri
      (fun i j -> if i mod 5 = 2 then Online.State.cancel state j)
      (Online.State.live state);
    for i = n to n + (n / 4) do
      ignore (Online.State.add state ~app:apps.(i))
    done;
    let k2, m2 = solve ~elapsed:dt in
    let live = Online.State.live state in
    ( (k1, m1, k2, m2),
      Array.map Online.State.procs live,
      Array.map Online.State.cache live )
  in
  if jobs = 0 then run None
  else Exec.Pool.with_pool ~jobs (fun p -> run (Some p))

let sharded_solve_state_bit_identical () =
  (* n = 12 stays on single-chunk demand sums; n = 2500 crosses the
     solver's 2048-wide eval chunk, so the chunked association itself is
     exercised with and without worker domains. *)
  List.iter
    (fun n ->
      let reference = sharded_trace ~n ~jobs:0 () in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d pool=%d == sequential" n jobs)
            true
            (sharded_trace ~n ~jobs () = reference))
        [ 1; 2; 8 ])
    [ 12; 2500 ]

let qcheck_sharded_equals_sequential_service =
  (* Full service runs under churn: a sharding pool (sizes 1, 2, 8 with
     shard_min 1, so every re-solve shards) commits bit-identical
     allocations at every re-solve, and metrics, to the unsharded run. *)
  QCheck.Test.make ~name:"sharded service run == sequential (pool 1/2/8)"
    ~count:12
    QCheck.(pair (int_bound 10_000) (oneofl [ 1; 2; 8 ]))
    (fun (seed, jobs) ->
      let stream = stream_of ~seed ~load:3. 12 in
      (* Every re-solve's (ids, procs, cache, k), newest first. *)
      let run ?pool () =
        let trace = ref [] in
        let on_resolve lv =
          let live = Online.State.live (Online.Service.live_state lv) in
          trace :=
            ( Array.map Online.State.id live,
              Array.map Online.State.procs live,
              Array.map Online.State.cache live,
              Online.Service.last_makespan lv )
            :: !trace
        in
        let m =
          replay ?pool ~shard_min:1 ~policy:Online.Policy.Every_event
            ~on_resolve stream
        in
        (m, !trace)
      in
      let seq = run () in
      let shd = Exec.Pool.with_pool ~jobs (fun pool -> run ~pool ()) in
      seq = shd)

(* --- Columnar state: freelist and compaction invariants ----------------- *)

let state_freelist_and_compaction () =
  let st = Online.State.create platform in
  let apps = synth ~seed:33 40 in
  let jobs = Array.init 30 (fun i -> Online.State.add st ~app:apps.(i)) in
  let ever0, free0, live0, dense0 = Online.State.mem_stats st in
  Alcotest.(check int) "slots_ever = free + live" ever0 (free0 + live0);
  Alcotest.(check int) "30 live" 30 live0;
  Alcotest.(check int) "no holes before retirement" live0 dense0;
  (* Retire 10 of 30: the freelist grows and the iteration array keeps
     the holes (compaction is lazy, and 20 live of 30 dense is above the
     half-dead auto-compaction threshold). *)
  for i = 0 to 29 do
    if i mod 3 = 1 then Online.State.cancel st jobs.(i)
  done;
  let ever1, free1, live1, dense1 = Online.State.mem_stats st in
  Alcotest.(check int) "slots conserved across retirement" ever1 (free1 + live1);
  Alcotest.(check int) "20 live" 20 live1;
  Alcotest.(check int) "10 holes pending" 10 (dense1 - live1);
  Online.State.compact st;
  let ever2, _, live2, dense2 = Online.State.mem_stats st in
  Alcotest.(check int) "compact squeezes every hole" live2 dense2;
  Alcotest.(check int) "compact frees no slots" ever1 ever2;
  (* Re-admission drains the freelist before minting new slots: the
     high-water mark must not move while freed slots can serve. *)
  for i = 30 to 39 do
    ignore (Online.State.add st ~app:apps.(i))
  done;
  let ever3, free3, live3, _ = Online.State.mem_stats st in
  Alcotest.(check int) "slot reuse keeps slots_ever" ever2 ever3;
  Alcotest.(check int) "freelist drained" 0 free3;
  Alcotest.(check int) "30 live again" 30 live3;
  (* Live iteration order is admission (= id) order through holes,
     compaction and slot reuse alike. *)
  let ids = Array.map Online.State.id (Online.State.live st) in
  let sorted = Array.copy ids in
  Array.sort compare sorted;
  Alcotest.(check bool) "live in admission order" true (ids = sorted)

let () =
  Alcotest.run "online"
    [
      ( "workload_stream",
        [
          test "rejects decreasing times" stream_rejects_decreasing_times;
          test "rejects dangling departure" stream_rejects_dangling_departure;
          test "poisson is deterministic" stream_poisson_deterministic;
          test "poisson counts and ordering" stream_poisson_counts;
        ] );
      ( "policy",
        [
          test "of_string roundtrip" policy_of_string_roundtrip;
          test "rejects bad specs" policy_rejects_bad;
          test "should_resolve semantics" policy_should_resolve;
        ] );
      ( "state",
        [
          test "integrates progress" state_integrates_progress;
          test "job lifecycle" state_lifecycle;
          test "counts migrations" state_counts_migrations;
          test "detects oversubscription" state_detects_oversubscription;
          test "freelist and compaction invariants" state_freelist_and_compaction;
        ] );
      ( "incremental",
        [
          qtest qcheck_cold_partition_matches_builder;
          qtest qcheck_warm_partition_matches_cold;
          qtest qcheck_equalize_warm_seed_same_root;
          test "warm seed saves iterations" warm_seed_saves_iterations;
        ] );
      ( "service",
        [
          test "completes all jobs under every policy" service_completes_all_jobs;
          test "handles departures" service_handles_departures;
          test "deterministic" service_deterministic;
          qtest qcheck_warm_matches_cold_oracle;
          test "warm saves solver work" warm_service_saves_solver_work;
        ] );
      ( "sharding",
        [
          test "solve_state bit-identical across pools"
            sharded_solve_state_bit_identical;
          qtest qcheck_sharded_equals_sequential_service;
        ] );
    ]
