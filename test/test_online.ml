(* Tests for the online co-scheduling subsystem: workload streams, live
   state, warm-started incremental re-solvers, policies and the service
   loop.  The load-bearing properties: the warm partition and the
   warm-seeded makespan root give the same answers as the cold
   baselines, every warm re-solve of a service run commits the
   allocation the cold pipeline computes for the same residual instance,
   and the epoch-anchored service agrees with the flat per-event
   integrator kept here as an oracle. *)

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

(* Install [allocs] on [jobs], which must be the whole live set in
   arrival order, through the state's one install path: a settling
   {!Online.State.view}, then {!Online.State.apply_view} with the access
   costs recomputed from the model (the solver derives the same values
   during a re-solve).  Returns the migration count. *)
let apply state jobs allocs =
  let v = Online.State.view state in
  let n = v.Online.State.v_n in
  if n <> Array.length jobs || n <> Array.length allocs then
    invalid_arg "apply: jobs must be the live set, one allocation each";
  let procs = Array.map (fun (a : Model.Schedule.alloc) -> a.procs) allocs in
  let cache = Array.map (fun (a : Model.Schedule.alloc) -> a.cache) allocs in
  let access =
    Array.map2
      (fun j x -> Model.Exec_model.access_cost ~app:(Online.State.app j) ~platform x)
      jobs cache
  in
  Online.State.apply_view state ~n ~procs ~cache ~access

let state_integrates_progress () =
  let state = Online.State.create platform in
  let app = (synth ~seed:2 1).(0) in
  let job = Online.State.add state ~app in
  ignore
    (apply state [| job |]
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
    (apply state (Online.State.live state)
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
    (apply state jobs (alloc 8. 0.5));
  Alcotest.(check int) "unchanged allocation is free" 0
    (apply state jobs (alloc 8. 0.5));
  Alcotest.(check int) "a real change migrates" 1
    (apply state jobs (alloc 6. 0.5));
  Alcotest.(check int) "per-job count" 1 (Online.State.migrations job)

let state_detects_oversubscription () =
  let state = Online.State.create platform in
  let apps = synth ~seed:5 2 in
  let jobs = Array.map (fun app -> Online.State.add state ~app) apps in
  ignore
    (apply state jobs
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
    let dt = 0.25 *. (Online.State.next_finish state -. Online.State.now state) in
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

(* --- the flat per-event integrator, kept as an oracle ------------------- *)

(* The service as it ran before progress was epoch-anchored: every event
   integrates every running job's remaining fraction and the busy
   integral over the elapsed step (the loop [State.advance] used to run),
   and every event re-predicts the next completion as
   [now + min (remaining * exe)].  Re-solves run the production warm
   solver, on its own [Incremental.t], over a scratch state into which
   the oracle's live jobs are injected at their current progress with
   the clock on the anchor — so the solver sees bit-identical inputs
   whenever the two sides' remaining fractions agree. *)
type ojob = {
  o_app : Model.App.t;
  mutable o_rem : float;
  mutable o_procs : float;
  mutable o_cache : float;
  mutable o_access : float;
  mutable o_exe : float;
  mutable o_live : bool;
  mutable o_finish : float option;
  mutable o_cancelled : bool;
}

type oracle = {
  o_policy : Online.Policy.t;
  o_inc : Online.Incremental.t;
  mutable o_clock : float;
  mutable o_busy : float;
  mutable o_jobs : ojob list; (* id order, newest last *)
  mutable o_since : int;
  mutable o_last_solve : float;
  mutable o_pred : float option;
  mutable o_resolves : int;
}

let oracle_create policy =
  {
    o_policy = policy;
    o_inc = Online.Incremental.create ();
    o_clock = 0.;
    o_busy = 0.;
    o_jobs = [];
    o_since = 0;
    o_last_solve = 0.;
    o_pred = None;
    o_resolves = 0;
  }

let o_live o = List.filter (fun j -> j.o_live) o.o_jobs

let o_advance o ~to_ =
  let dt = to_ -. o.o_clock in
  if dt > 0. then
    List.iter
      (fun j ->
        if j.o_live && j.o_procs > 0. then begin
          o.o_busy <- o.o_busy +. (j.o_procs *. dt);
          if j.o_rem > 0. then j.o_rem <- Float.max 0. (j.o_rem -. (dt /. j.o_exe))
        end)
      o.o_jobs;
  o.o_clock <- Float.max o.o_clock to_

let o_resolve o =
  let live = o_live o in
  if live <> [] then begin
    let st = Online.State.create platform in
    Online.State.restore st ~clock:o.o_clock ~anchor:o.o_clock ~next_id:0 ~busy:0.;
    let handles =
      List.mapi
        (fun i j ->
          Online.State.inject st ~id:i ~app:j.o_app ~arrival:0. ~remaining:j.o_rem
            ~procs:j.o_procs ~cache:j.o_cache ~allocated:false ~epoch:0 ~migrations:0)
        live
    in
    ignore
      (Online.Incremental.solve_state o.o_inc ~elapsed:(o.o_clock -. o.o_last_solve)
         ~state:st ());
    List.iter2
      (fun j h ->
        j.o_procs <- Online.State.procs h;
        j.o_cache <- Online.State.cache h;
        j.o_access <- Model.Exec_model.access_cost ~app:j.o_app ~platform j.o_cache;
        j.o_exe <-
          (if j.o_procs > 0. then
             Model.Exec_model.exe ~app:j.o_app ~platform ~p:j.o_procs ~x:j.o_cache
           else infinity))
      live handles;
    o.o_since <- 0;
    o.o_last_solve <- o.o_clock;
    o.o_resolves <- o.o_resolves + 1
  end

let o_decide o =
  let live = o_live o in
  if live <> [] then begin
    let queued = List.exists (fun j -> j.o_procs = 0.) live in
    let running = List.exists (fun j -> j.o_procs > 0.) live in
    let degradation () =
      let p = platform.Model.Platform.p in
      let used = ref 0. and queued_w = ref 0. and total_w = ref 0. in
      List.iter
        (fun j ->
          used := !used +. j.o_procs;
          let wk = j.o_rem *. (j.o_app.Model.App.w *. j.o_access) in
          total_w := !total_w +. wk;
          if j.o_procs = 0. then queued_w := !queued_w +. wk)
        live;
      let frac = (p -. !used) /. p in
      (if frac > 1e-9 then frac else 0.)
      +. if !total_w > 0. then !queued_w /. !total_w else 0.
    in
    if queued && not running then o_resolve o
    else if
      Online.Policy.should_resolve o.o_policy ~events_pending:o.o_since ~degradation
    then o_resolve o
  end

let o_predict o =
  let m = ref infinity in
  List.iter
    (fun j ->
      if j.o_live && j.o_procs > 0. then begin
        let v = j.o_rem *. j.o_exe in
        if v < !m then m := v
      end)
    o.o_jobs;
  o.o_pred <- (if !m < infinity then Some (o.o_clock +. !m) else None)

let o_after_event o =
  o.o_since <- o.o_since + 1;
  o_decide o;
  o_predict o

(* Fire every prediction due at or before [at], as the engine does. *)
let rec o_fire o ~at =
  match o.o_pred with
  | Some tp when tp <= at ->
    o_advance o ~to_:tp;
    List.iter
      (fun j ->
        if j.o_live && j.o_procs > 0. && j.o_rem <= 1e-9 then begin
          j.o_live <- false;
          j.o_rem <- 0.;
          j.o_procs <- 0.;
          j.o_cache <- 0.;
          j.o_finish <- Some tp
        end)
      o.o_jobs;
    o_after_event o;
    o_fire o ~at
  | _ -> ()

let o_submit o ~at app =
  let at = Float.max at o.o_clock in
  o_fire o ~at;
  o_advance o ~to_:at;
  o.o_jobs <-
    o.o_jobs
    @ [
        {
          o_app = app;
          o_rem = 1.;
          o_procs = 0.;
          o_cache = 0.;
          o_access = Model.Exec_model.access_cost ~app ~platform 0.;
          o_exe = infinity;
          o_live = true;
          o_finish = None;
          o_cancelled = false;
        };
      ];
  o_after_event o

let o_cancel o ~at ~id =
  let at = Float.max at o.o_clock in
  o_fire o ~at;
  match List.nth_opt o.o_jobs id with
  | Some j when j.o_live ->
    o_advance o ~to_:at;
    j.o_live <- false;
    j.o_procs <- 0.;
    j.o_cache <- 0.;
    j.o_cancelled <- true;
    o_after_event o
  | _ -> ()

let o_ping o ~at =
  let at = Float.max at o.o_clock in
  o_fire o ~at;
  o_advance o ~to_:at

let o_drain o =
  let continue_ = ref true in
  while !continue_ do
    o_fire o ~at:infinity;
    if o_live o = [] then continue_ := false
    else begin
      o_resolve o;
      o_predict o
    end
  done

type op = Submit of int | Cancel of int | Ping

let op_print = function
  | Submit i -> Printf.sprintf "submit(%d)" i
  | Cancel i -> Printf.sprintf "cancel(%d)" i
  | Ping -> "ping"

(* Random operation sequences with nondecreasing times (a step is a
   fraction of one job's run alone, so completions interleave with the
   other operations).  Cancels name any id admitted so far, live or
   retired. *)
let gen_ops ~pings =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (pair
         (frequency
            ([ (5, map (fun i -> Submit i) (int_bound 999)); (3, map (fun i -> Cancel i) (int_bound 999)) ]
            @ if pings then [ (2, return Ping) ] else []))
         (float_range 0. 0.6)))

let policies = [ Online.Policy.Every_event; Batched 4; Threshold 0.1 ]

(* Replay [ops] through the service and the oracle, comparing every
   admitted job after each operation and after the drain.  [exact]
   demands equal bits, otherwise 1e-9 relative (absolute below 1); the
   retired sets (which jobs completed, which were cancelled) and the
   re-solve count must match either way. *)
let agrees_with_oracle ~exact ~seed ~policy ops =
  let apps = synth ~seed 1000 in
  let unit =
    Model.Exec_model.exe ~app:apps.(0) ~platform ~p:platform.Model.Platform.p ~x:1.
  in
  let config = { Online.Service.default_config with policy } in
  let lv = Online.Service.live_create ~config ~platform () in
  let o = oracle_create policy in
  let same a b = if exact then a = b else rel_close a b in
  let check what =
    let admitted = List.length o.o_jobs in
    Online.Service.live_epoch lv = o.o_resolves
    && List.for_all
         (fun id ->
           match Online.Service.find_job lv id with
           | None -> false
           | Some j ->
             let oj = List.nth o.o_jobs id in
             let ok =
               same (Online.State.remaining j) oj.o_rem
               && same (Online.State.procs j) oj.o_procs
               && same (Online.State.cache j) oj.o_cache
               && Option.equal same (Online.State.finish j) oj.o_finish
               && Online.State.cancelled j = oj.o_cancelled
             in
             if not ok then
               QCheck.Test.fail_reportf
                 "%s: job %d: remaining %h/%h procs %h/%h cache %h/%h" what id
                 (Online.State.remaining j) oj.o_rem (Online.State.procs j)
                 oj.o_procs (Online.State.cache j) oj.o_cache;
             ok)
         (List.init admitted Fun.id)
  in
  let t = ref 0. in
  List.for_all
    (fun (op, frac) ->
      t := !t +. (frac *. unit);
      let admitted = List.length o.o_jobs in
      (match op with
      | Submit i ->
        ignore (Online.Service.submit lv ~at:!t apps.(i) : Online.State.job);
        o_submit o ~at:!t apps.(i)
      | Cancel i when admitted > 0 ->
        let id = i mod admitted in
        ignore (Online.Service.cancel lv ~at:!t ~id : bool);
        o_cancel o ~at:!t ~id
      | Cancel _ -> ()
      | Ping ->
        Online.Service.advance lv ~to_:!t;
        o_ping o ~at:!t);
      check (op_print op))
    ops
  && begin
       Online.Service.drain lv;
       o_drain o;
       let m = (Online.Service.live_report lv).Online.Service.metrics in
       check "drain"
       && rel_close m.Online.Metrics.utilization
            (if o.o_clock > 0. then o.o_busy /. (platform.Model.Platform.p *. o.o_clock)
             else 0.)
     end

let qcheck_every_event_bit_identical_to_oracle =
  QCheck.Test.make ~count:60
    ~name:"every-event submits/cancels == flat oracle, bit for bit"
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat " " (List.map (fun (o, f) -> Printf.sprintf "%s@+%g" (op_print o) f) ops)))
       QCheck.Gen.(pair (int_bound 10_000) (gen_ops ~pings:false)))
    (fun (seed, ops) ->
      agrees_with_oracle ~exact:true ~seed ~policy:Online.Policy.Every_event ops)

let qcheck_policies_track_oracle =
  QCheck.Test.make ~count:60
    ~name:"any policy, with pings, tracks the flat oracle (1e-9 rel)"
    (QCheck.make
       ~print:(fun (seed, pi, ops) ->
         Printf.sprintf "seed %d, %s: %s" seed
           (Online.Policy.name (List.nth policies pi))
           (String.concat " " (List.map (fun (o, f) -> Printf.sprintf "%s@+%g" (op_print o) f) ops)))
       QCheck.Gen.(triple (int_bound 10_000) (int_bound 2) (gen_ops ~pings:true)))
    (fun (seed, pi, ops) ->
      agrees_with_oracle ~exact:false ~seed ~policy:(List.nth policies pi) ops)

(* --- the completion calendar: one pending prediction ------------------- *)

(* 10^4 submit/cancel events that complete nothing: the engine holds the
   one live prediction, never a pile of superseded ones. *)
let one_pending_prediction () =
  let config =
    { Online.Service.default_config with policy = Online.Policy.Batched 16 }
  in
  let lv = Online.Service.live_create ~config ~platform () in
  let apps = synth ~seed:61 64 in
  Array.iter (fun a -> ignore (Online.Service.submit lv ~at:0. a : Online.State.job)) apps;
  let k = Option.get (Online.Service.last_makespan lv) in
  let worst = ref 0 in
  for e = 0 to 9_999 do
    let at = float_of_int (e + 1) *. k *. 1e-9 in
    if e mod 2 = 0 then
      ignore (Online.Service.submit lv ~at apps.(e mod 64) : Online.State.job)
    else ignore (Online.Service.cancel lv ~at ~id:(64 + (e / 2)) : bool);
    worst := max !worst (Online.Service.pending_events lv)
  done;
  Alcotest.(check int) "nothing completed" 0
    (Online.Service.live_report lv).Online.Service.metrics.Online.Metrics.completed;
  Alcotest.(check int) "at most one pending prediction" 1 !worst;
  Alcotest.(check int) "one pending now" 1 (Online.Service.pending_events lv)

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
      ( "oracle",
        [
          qtest qcheck_every_event_bit_identical_to_oracle;
          qtest qcheck_policies_track_oracle;
          test "one pending completion prediction" one_pending_prediction;
        ] );
    ]
