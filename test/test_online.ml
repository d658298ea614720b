(* Tests for the online co-scheduling subsystem: workload streams, live
   state, warm-started incremental re-solvers, policies and the service
   loop.  The load-bearing properties: the warm partition and the
   warm-seeded makespan root give the same answers as the cold
   baselines, every warm re-solve of a service run commits the
   allocation the cold pipeline computes for the same residual instance,
   and the epoch-anchored service agrees with the flat per-event
   integrator.  The cold pipeline and the integrator are the oracle
   library's ({!Oracle.Cold}, {!Oracle.Flat}). *)

let check_float = Alcotest.(check (float 1e-9))
let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

(* The paper's node with a 10^5-byte cache.  On the paper platform
   nothing is evicted below n of about 2 * 10^4; here most jobs are. *)
let small_cache = Model.Platform.make ~p:256. ~cs:1e5 ()

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let stream_of ?(platform = platform) ~seed ~load n =
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
    (Oracle.Flat.apply state [| job |]
       [| { Model.Schedule.procs = platform.Model.Platform.p; cache = 1. } |]);
  let exe =
    Model.Exec_model.exe ~app ~platform ~p:platform.Model.Platform.p ~x:1.
  in
  Online.State.advance state ~to_:(0.25 *. exe);
  check_float "quarter done" 0.75 (Online.State.remaining job);
  check_float "remaining time" (0.75 *. exe)
    (Online.State.predicted_finish job -. Online.State.now state);
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
    (Oracle.Flat.apply state (Online.State.live state)
       [|
         { Model.Schedule.procs = 4.; cache = 0.5 };
         { Model.Schedule.procs = 4.; cache = 0.5 };
         { Model.Schedule.procs = 0.; cache = 0. };
       |]);
  Alcotest.(check int) "two running" 2 (Online.State.running state);
  Online.State.cancel state jobs.(2);
  (* Job 1 finishes first: the sweep at its predicted finish retires it
     alone. *)
  let fin1 = Online.State.predicted_finish jobs.(1) in
  Alcotest.(check bool) "job 1 finishes first" true
    (fin1 < Online.State.predicted_finish jobs.(0));
  Online.State.advance state ~to_:fin1;
  let swept = ref [] in
  Online.State.complete_due state ~eps:1e-9 (fun j -> swept := j :: !swept);
  Alcotest.(check (list int)) "the sweep completes job 1" [ 1 ]
    (List.map Online.State.id !swept);
  Alcotest.(check int) "one live" 1 (Array.length (Online.State.live state));
  Alcotest.(check bool) "finish recorded" true
    (Online.State.finish jobs.(1) = Some fin1);
  Alcotest.(check bool) "cancel recorded" true (Online.State.cancelled jobs.(2));
  Alcotest.(check int) "two retired" 2
    (List.length
       (List.filter
          (fun j -> Online.State.finish j <> None || Online.State.cancelled j)
          (Array.to_list jobs)))

(* A checkpoint restores into a state that never admitted a job: one
   holding a live job is refused, and so is one whose every job has
   already retired (it has nothing live, but ids and clock are taken). *)
let state_restore_needs_fresh () =
  let apps = synth ~seed:5 1 in
  let restore st =
    match Online.State.restore st ~clock:0. ~anchor:0. ~next_id:0 ~busy:0. ~live:0 with
    | () -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "a fresh state restores" true
    (restore (Online.State.create platform));
  let st = Online.State.create platform in
  let job = Online.State.add st ~app:apps.(0) in
  Alcotest.(check bool) "a state holding a job is refused" false (restore st);
  Online.State.cancel st job;
  Alcotest.(check int) "nothing live" 0 (Online.State.live_count st);
  Alcotest.(check bool) "a state whose jobs all retired is refused" false
    (restore st)

let state_counts_migrations () =
  let state = Online.State.create platform in
  let app = (synth ~seed:4 1).(0) in
  let job = Online.State.add state ~app in
  let jobs = [| job |] in
  let alloc p x = [| { Model.Schedule.procs = p; cache = x } |] in
  Alcotest.(check int) "first allocation is free" 0
    (Oracle.Flat.apply state jobs (alloc 8. 0.5));
  Alcotest.(check int) "unchanged allocation is free" 0
    (Oracle.Flat.apply state jobs (alloc 8. 0.5));
  Alcotest.(check int) "a real change migrates" 1
    (Oracle.Flat.apply state jobs (alloc 6. 0.5));
  Alcotest.(check int) "per-job count" 1 (Online.State.migrations job)

let state_detects_oversubscription () =
  let state = Online.State.create platform in
  let apps = synth ~seed:5 2 in
  let jobs = Array.map (fun app -> Online.State.add state ~app) apps in
  ignore
    (Oracle.Flat.apply state jobs
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
      Oracle.Cold.partition ~platform apps = reference)

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
      ignore (Online.Incremental.solve_state inc ~elapsed:0. ~state:st);
      let jobs = Online.State.live st in
      let cold =
        Oracle.Cold.partition ~platform
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
      let subset = Oracle.Cold.partition ~platform apps in
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
  let subset = Oracle.Cold.partition ~platform apps in
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
let replay ?(platform = platform) ~policy ~on_resolve stream =
  let config = { Online.Service.default_config with policy; validate = true } in
  let lv = ref None in
  let listener = function
    | Online.Service.Resolved _ -> on_resolve (Option.get !lv)
    | Online.Service.Completed _ -> ()
  in
  let live =
    Online.Service.live_create ~config ~listener ~platform ()
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
  Online.Service.live_report live

(* The cold oracle of one warm re-solve: [Oracle.Cold.solve] on the
   residual instance the service just solved, compared with what the
   service installed — makespan, every processor share and cache
   fraction to 1e-9 relative, and the cached set exactly.  [evictions]
   counts the live jobs the oracle left out of the cache. *)
let matches_cold_oracle ?(evictions = ref 0) counters lv =
  let state = Online.Service.live_state lv in
  let jobs = Online.State.live state in
  let apps = Array.map Online.State.remaining_app jobs in
  let schedule, k =
    Oracle.Cold.solve counters ~platform:(Online.State.platform state) ~apps
  in
  let cold = schedule.Model.Schedule.allocs in
  Array.iter
    (fun (a : Model.Schedule.alloc) -> if a.cache = 0. then incr evictions)
    cold;
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
      let m = run_service ~policy stream in
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
  let m = run_service ~policy:Online.Policy.Every_event stream in
  Alcotest.(check int) "two complete" 2 m.Online.Metrics.completed;
  Alcotest.(check int) "one cancelled" 1 m.Online.Metrics.cancelled

let service_deterministic () =
  let stream = stream_of ~seed:23 ~load:4. 15 in
  let run () = run_service ~policy:(Online.Policy.Batched 3) stream in
  Alcotest.(check bool) "bit-identical metrics" true (run () = run ())

(* The headline property: warm-started re-solves change nothing but the
   work done — every allocation the service commits is the cold
   pipeline's on the same residual instance, under each re-solve
   policy.  [evictions] counts the oracle's evictions. *)
let warm_matches_cold_oracle ?platform ~load ~apps ~evictions (seed, policy) =
  let stream = stream_of ?platform ~seed ~load apps in
  let counters = Online.Incremental.fresh_counters () in
  let ok = ref true in
  let m =
    replay ?platform ~policy stream ~on_resolve:(fun lv ->
        if not (matches_cold_oracle ~evictions counters lv) then ok := false)
  in
  !ok
  && m.Online.Metrics.resolves = counters.Online.Incremental.resolves
  && m.Online.Metrics.completed = apps

let seed_and_policy =
  QCheck.(
    pair (int_bound 10_000)
      (oneofl
         [
           Online.Policy.Every_event; Batched 1; Batched 4; Threshold 0.;
           Threshold 0.1;
         ]))

let qcheck_warm_matches_cold_oracle =
  QCheck.Test.make ~name:"warm re-solves == cold oracle" ~count:20
    seed_and_policy
    (warm_matches_cold_oracle ~load:3. ~apps:12 ~evictions:(ref 0))

(* The same on [small_cache] with 40 jobs at load 16, with a fixed QCheck
   seed: the oracle must evict (at least once per stream on average), or
   the property checks nothing of the warm boundary selection. *)
let warm_matches_cold_oracle_evicting () =
  let evictions = ref 0 and count = 20 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |])
    (QCheck.Test.make ~name:"warm re-solves == cold oracle (cs = 1e5)" ~count
       seed_and_policy
       (warm_matches_cold_oracle ~platform:small_cache ~load:16. ~apps:40
          ~evictions));
  Alcotest.(check bool)
    (Printf.sprintf "%d evictions in %d streams" !evictions count)
    true (!evictions >= count)

let warm_service_saves_solver_work () =
  let stream = stream_of ~seed:25 ~load:6. 60 in
  let counters = Online.Incremental.fresh_counters () in
  let m =
    replay ~policy:Online.Policy.Every_event stream ~on_resolve:(fun lv ->
        if not (matches_cold_oracle counters lv) then Alcotest.fail "cold oracle")
  in
  let warm = m.Online.Metrics.solver_iters in
  let cold = counters.Online.Incremental.solver_iters in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d" warm cold)
    true (warm < cold)

(* --- The chunked demand sum --------------------------------------------- *)

(* Two columnar re-solves of one churned instance at n = 2500, which
   crosses the root-finder's 2048-wide demand chunk, against makespans
   recorded with the chunked sum.  Any change to the sum's float
   association moves their last bits and fails here. *)
let chunked_resolves_match_recorded () =
  let n = 2500 in
  let state = Online.State.create platform in
  let inc = Online.Incremental.create () in
  let apps = synth ~seed:31 (n + (n / 4) + 1) in
  for i = 0 to n - 1 do
    ignore (Online.State.add state ~app:apps.(i))
  done;
  let k1, _ = Online.Incremental.solve_state inc ~elapsed:0. ~state in
  let dt = 0.25 *. (Online.State.next_finish state -. Online.State.now state) in
  Online.State.advance state ~to_:dt;
  Array.iteri
    (fun i j -> if i mod 5 = 2 then Online.State.cancel state j)
    (Online.State.live state);
  for i = n to n + (n / 4) do
    ignore (Online.State.add state ~app:apps.(i))
  done;
  let k2, _ = Online.Incremental.solve_state inc ~elapsed:dt ~state in
  let bits = Alcotest.(check string) in
  bits "k1" "0x1.28149d419c994p+42" (Printf.sprintf "%h" k1);
  bits "k2" "0x1.f91b5b8bb5406p+41" (Printf.sprintf "%h" k2)

(* --- the eviction path ---------------------------------------------------- *)

(* An n = 3000 churn on [small_cache] —
   eight cancel-oldest/submit pairs and a sliver of progress between
   re-solves — against makespans recorded with the carried-sort
   boundary.  Any change to which jobs the boundary evicts moves the
   makespans and fails here. *)
let evicting_churn_matches_recorded () =
  let n = 3000 and churn = 8 and resolves = 6 in
  let state = Online.State.create small_cache in
  let inc = Online.Incremental.create () in
  let apps = synth ~seed:37 (n + (churn * resolves)) in
  for i = 0 to n - 1 do
    ignore (Online.State.add state ~app:apps.(i))
  done;
  let next = ref n and ks = ref [] and evicted = ref 0 in
  for r = 0 to resolves - 1 do
    let elapsed =
      if r = 0 then 0.
      else begin
        let dt = 0.01 *. (Online.State.next_finish state -. Online.State.now state) in
        Online.State.advance state ~to_:(Online.State.now state +. dt);
        let live = Online.State.live state in
        for i = 0 to churn - 1 do
          Online.State.cancel state live.(i);
          ignore (Online.State.add state ~app:apps.(!next));
          incr next
        done;
        dt
      end
    in
    let k, _ = Online.Incremental.solve_state inc ~elapsed ~state in
    ks := Printf.sprintf "%h" k :: !ks;
    Array.iter
      (fun j -> if Online.State.cache j = 0. then incr evicted)
      (Online.State.live state)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d placements evicted" !evicted (n * resolves))
    true
    (!evicted > n * resolves / 2);
  Alcotest.(check (list string))
    "makespans"
    [
      "0x1.069de373abb2p+43"; "0x1.042456a3084fep+43"; "0x1.015cc33b0e578p+43";
      "0x1.fe41c5104c492p+42"; "0x1.f90374eacdbfap+42"; "0x1.f41ca5f0863e4p+42";
    ]
    (List.rev !ks)

(* --- the flat per-event integrator as an oracle -------------------------- *)

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
   admitted job after each operation and after the drain (through the
   handles [submit] returned, which outlive retirement).  [exact]
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
  let o = Oracle.Flat.create ~platform policy in
  let handles = Hashtbl.create 64 in
  let same a b = if exact then a = b else rel_close a b in
  let check what =
    let admitted = List.length o.Oracle.Flat.o_jobs in
    Online.Service.live_epoch lv = o.o_resolves
    && List.for_all
         (fun id ->
           match Hashtbl.find_opt handles id with
           | None -> false
           | Some j ->
             let oj = List.nth o.o_jobs id in
             let ok =
               same (Online.State.remaining j) oj.Oracle.Flat.o_rem
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
        let j = Online.Service.submit lv ~at:!t apps.(i) in
        Hashtbl.replace handles (Online.State.id j) j;
        Oracle.Flat.submit o ~at:!t apps.(i)
      | Cancel i when admitted > 0 ->
        let id = i mod admitted in
        ignore (Online.Service.cancel lv ~at:!t ~id : bool);
        Oracle.Flat.cancel o ~at:!t ~id
      | Cancel _ -> ()
      | Ping ->
        Online.Service.advance lv ~to_:!t;
        Oracle.Flat.ping o ~at:!t);
      check (op_print op))
    ops
  && begin
       Online.Service.drain lv;
       Oracle.Flat.drain o;
       let m = Online.Service.live_report lv in
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
    (Online.Service.live_report lv).Online.Metrics.completed;
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
          test "restore needs a fresh state" state_restore_needs_fresh;
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
          test "evicting streams: warm == cold oracle"
            warm_matches_cold_oracle_evicting;
          test "warm saves solver work" warm_service_saves_solver_work;
        ] );
      ( "chunking",
        [
          test "n=2500 makespans match literals"
            chunked_resolves_match_recorded;
          test "n=3000 cs=1e5 evicting churn matches literals"
            evicting_churn_matches_recorded;
        ] );
      ( "oracle",
        [
          qtest qcheck_every_event_bit_identical_to_oracle;
          qtest qcheck_policies_track_oracle;
          test "one pending completion prediction" one_pending_prediction;
        ] );
    ]
