(* Properties guarding the solver hot-path overhaul.

   The contracts under test, in decreasing strictness:
   - the online entry [Equalize.solve_cols] (Illinois, warm or cold)
     finds the paper entry's bisection root, on both sides of the
     2048-wide demand chunk, and stops once its secant point rounds onto
     an endpoint;
   - the memoized {!Model.Kernel} matches the direct execution-model
     evaluation to <= 1e-12 relative (its factorisation reassociates one
     power), and its support threshold is bit-equal to
     {!Model.Power_law.min_useful_fraction};
   - the persistent warm partition behind [Incremental.solve_state]
     equals the cold eviction loop exactly across arbitrary
     arrival/departure/progress/restore histories, on the paper
     platform and on a 10^5-byte cache where most jobs are evicted, and
     its evictees are the first ones of a fresh sort; under
     cancel-oldest churn its boundary selection visits O(n) candidates
     per re-solve;
   - the optimized refinement tracks the oracle library's naive
     reference and never degrades its starting point;
   - an online event that neither re-solves nor completes a job walks
     the live set zero times ([State.sweeps] counts every walk);
   - a retired job leaves nothing behind: checkpoint work and live heap
     words do not grow with the number of jobs retired. *)

let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

(* The paper's node with a 10^5-byte cache: most jobs are evicted, where
   on the paper platform evictions start only near n = 2 * 10^4. *)
let small_cache = Model.Platform.make ~p:256. ~cs:1e5 ()

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let random_apps ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.Random n

(* A plausible allocation for an instance: Theorem 3 capped fractions on
   the dominant partition (what the schedulers actually bisect at). *)
let alloc apps =
  let subset = Oracle.Cold.partition ~platform apps in
  Theory.Dominant.cache_allocation_capped ~platform ~apps subset

let seed_and_n = QCheck.(pair (int_bound 10_000) (int_range 1 40))

(* --- the paper entry counts its work ----------------------------------- *)

let solve_counts_iters () =
  let apps = synth ~seed:11 12 in
  let x = alloc apps in
  let iters = ref 0 in
  ignore (Sched.Equalize.solve_makespan ~iters ~platform ~apps x);
  Alcotest.(check bool) "objective evaluated" true (!iters > 0)

(* --- Illinois entry vs the bisection entry ------------------------------ *)

(* Both entries stop once their bracket is at most
   [tol * (1 + |mid|)] wide (default tol 1e-13) and each final bracket
   holds the root, so the two answers differ by at most two bracket
   widths.  Instances sit on both sides of the 2048-wide demand chunk:
   below it the sum is one plain loop, above it ascending per-chunk
   partials.  Each instance is solved cold and from seeds on either side
   of the root, near and far. *)
let tol = 1e-13

let qcheck_cols_matches_bisection =
  QCheck.Test.make ~count:60
    ~name:"solve_cols within two brackets of bisection"
    QCheck.(
      pair (int_bound 10_000)
        (oneof [ int_range 1 64; int_range 2000 2100; int_range 4000 4200 ]))
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = alloc apps in
      let k = Sched.Equalize.solve_makespan ~platform ~apps x in
      let s = Array.map (fun app -> app.Model.App.s) apps in
      let costs = Sched.Equalize.work_costs ~platform ~apps ~x in
      List.for_all
        (fun warm ->
          let k' =
            Sched.Equalize.solve_cols ?warm ~platform ~s ~costs ~n ()
          in
          Float.abs (k -. k') <= 2. *. tol *. (1. +. Float.abs k))
        [ None; Some (k *. 0.3); Some (k *. 0.999); Some (k *. 1.001);
          Some (k *. 3.) ])

(* The recorded endpoint stall: bench/main.exe online's threshold:0.1
   stream (100 NPB-SYNTH apps, load 8, seed 2017), re-solve 17.  After
   nine steps one endpoint sat on the root to float precision, every
   later secant point rounded onto it, and the midpoint fallback halved
   the bracket to the tolerance: 31 evaluations.  Stopping at that
   endpoint ends the solve in at most 12. *)
let illinois_stops_at_endpoint () =
  let stream =
    Online.Workload_stream.poisson_load ~rng:(Util.Rng.create 2017) ~platform
      ~load:8. ~dataset:Model.Workload.NpbSynth 100
  in
  let config =
    { Online.Service.default_config with policy = Online.Policy.Threshold 0.1 }
  in
  let lv = ref None and last = ref 0 and evals = ref (-1) in
  let listener = function
    | Online.Service.Resolved { epoch; _ } ->
      let iters = (Online.Service.live_counters (Option.get !lv)).Online.Incremental.solver_iters in
      if epoch = 17 then evals := iters - !last;
      last := iters
    | Completed _ -> ()
  in
  let live = Online.Service.live_create ~config ~listener ~platform () in
  lv := Some live;
  List.iter
    (fun { Online.Workload_stream.time; kind } ->
      match kind with
      | Online.Workload_stream.Arrival app ->
        ignore (Online.Service.submit live ~at:time app : Online.State.job)
      | Departure id -> ignore (Online.Service.cancel live ~at:time ~id : bool))
    (Online.Workload_stream.events stream);
  Alcotest.(check bool)
    (Printf.sprintf "re-solve 17 took %d evaluations" !evals)
    true
    (!evals > 0 && !evals <= 12)

(* --- memoized kernel vs direct evaluation ------------------------------ *)

let rel_err a b =
  Float.abs (a -. b) /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

let qcheck_kernel_work_cost =
  QCheck.Test.make ~count:100
    ~name:"Kernel.work_cost matches Exec_model to 1e-12 rel"
    QCheck.(triple (int_bound 10_000) (int_range 1 20) (float_range 0. 1.))
    (fun (seed, n, x) ->
      let x = Float.abs x in
      let apps = random_apps ~seed n in
      let kern = Model.Kernel.create ~platform apps in
      Array.to_list (Array.mapi (fun i app -> (i, app)) apps)
      |> List.for_all (fun (i, app) ->
             let direct = Model.Exec_model.work_cost ~app ~platform ~x in
             (* Evaluate twice: the second call must hit the memo and
                return the identical value. *)
             let k1 = Model.Kernel.work_cost kern i x in
             let k2 = Model.Kernel.work_cost kern i x in
             k1 = k2 && rel_err direct k1 <= 1e-12))

let qcheck_kernel_derivative =
  QCheck.Test.make ~count:100
    ~name:"Kernel.cost_derivative matches Refine's to 1e-12 rel"
    QCheck.(triple (int_bound 10_000) (int_range 1 20) (float_range 0. 1.))
    (fun (seed, n, x) ->
      let x = Float.abs x in
      let apps = random_apps ~seed n in
      let kern = Model.Kernel.create ~platform apps in
      Array.to_list (Array.mapi (fun i app -> (i, app)) apps)
      |> List.for_all (fun (i, app) ->
             let direct = Oracle.Refine_reference.cost_derivative ~platform app x in
             let k = Model.Kernel.cost_derivative kern i x in
             rel_err direct k <= 1e-12))

let kernel_threshold_exact () =
  let apps = random_apps ~seed:7 20 in
  let kern = Model.Kernel.create ~platform apps in
  Array.iteri
    (fun i app ->
      Alcotest.(check (float 0.))
        "min_useful bitwise"
        (Model.Power_law.min_useful_fraction ~app ~platform)
        (Model.Kernel.min_useful kern i))
    apps

(* --- persistent warm partition under churn ----------------------------- *)

(* After a columnar re-solve, the jobs holding cache are exactly the
   subset the cold eviction loop picks on the same residual apps. *)
let solve_state_matches_cold inc st =
  ignore (Online.Incremental.solve_state inc ~elapsed:0. ~state:st);
  let jobs = Online.State.live st in
  let cold =
    Oracle.Cold.partition ~platform:(Online.State.platform st)
      (Array.map Online.State.remaining_app jobs)
  in
  Array.for_all2 (fun j c -> Online.State.cache j > 0. = c) jobs cold

(* The last solve's evictees are exactly the first ones of a fresh sort
   of the live positions by (ratio, position), the cold eviction loop's
   MinRatio order; [evictions] counts them. *)
let evictees_are_sort_prefix ?(evictions = ref 0) inc st =
  let platform = Online.State.platform st in
  let ratio =
    Array.map
      (fun j -> Theory.Dominant.ratio ~platform (Online.State.remaining_app j))
      (Online.State.live st)
  in
  let fresh = Array.init (Array.length ratio) Fun.id in
  Array.sort
    (fun u v ->
      match Float.compare ratio.(u) ratio.(v) with 0 -> Int.compare u v | c -> c)
    fresh;
  let evicted = Online.Incremental.evicted_positions inc in
  let b = Array.length evicted in
  evictions := !evictions + b;
  Array.sort Int.compare evicted;
  let prefix = Array.sub fresh 0 b in
  Array.sort Int.compare prefix;
  evicted = prefix

(* A checkpoint restore of the live state into a fresh one, as
   [Service.live_restore] rebuilds it; the re-solver starts cold. *)
let restored st =
  let st' = Online.State.create (Online.State.platform st) in
  Online.State.restore st' ~clock:(Online.State.now st)
    ~anchor:(Online.State.anchor st) ~next_id:(Online.State.next_id st)
    ~busy:(Online.State.settled_busy st) ~live:(Online.State.live_count st);
  Array.iter
    (fun j ->
      ignore
        (Online.State.inject st' ~id:(Online.State.id j) ~app:(Online.State.app j)
           ~arrival:(Online.State.arrival j)
           ~remaining:(Online.State.settled_remaining j)
           ~procs:(Online.State.procs j) ~cache:(Online.State.cache j)
           ~allocated:(Online.State.allocated j) ~epoch:(Online.State.epoch j)
           ~migrations:(Online.State.migrations j)
          : Online.State.job))
    (Online.State.live st);
  st'

(* Random histories.  Arrivals append fresh applications; departures
   cancel at a random position (shifting every later position); the
   churn perfbench's live-1e5 and wire-mixed drive cancels the oldest
   job and submits a new one; a burst cancels two random jobs and
   admits two, each arrival reusing a freed slot; progress advances the
   clock under the installed allocation by half the time to the first
   completion; a restore rebuilds the state from a checkpoint and
   re-solves from a cold re-solver.  After every event the persistent
   warm partition must equal the cold eviction loop exactly, and its
   evictees must be the first ones of a fresh sort; [evictions] counts
   them. *)
let warm_partition_under_churn ~platform ~dataset ~initial ~evictions
    (seed, script) =
  let rng = Util.Rng.create seed in
  let st = ref (Online.State.create platform) in
  let inc = ref (Online.Incremental.create ()) in
  let arrive () =
    let app = (Model.Workload.generate ~rng dataset 1).(0) in
    ignore (Online.State.add !st ~app)
  in
  let cancel_at i =
    let live = Online.State.live !st in
    let n = Array.length live in
    if n > 1 then Online.State.cancel !st live.(i mod n)
  in
  for _ = 1 to initial do
    arrive ()
  done;
  List.for_all
    (fun op ->
      (match op mod 6 with
      | 0 -> arrive ()
      | 1 -> cancel_at op
      | 2 ->
        let dt = Online.State.next_finish !st -. Online.State.now !st in
        if Float.is_finite dt then
          Online.State.advance !st ~to_:(Online.State.now !st +. (0.5 *. dt))
      | 3 ->
        cancel_at 0;
        arrive ()
      | 4 ->
        cancel_at op;
        cancel_at (op / 2);
        arrive ();
        arrive ()
      | _ ->
        st := restored !st;
        inc := Online.Incremental.create ());
      solve_state_matches_cold !inc !st
      && evictees_are_sort_prefix ~evictions !inc !st)
    script

let churn_scripts =
  QCheck.(pair (int_bound 10_000) (list_of_size Gen.(int_range 5 40) (int_bound 99)))

let qcheck_warm_partition_under_churn =
  QCheck.Test.make ~count:40 ~name:"persistent warm partition == cold under churn"
    churn_scripts
    (warm_partition_under_churn ~platform ~dataset:Model.Workload.Random
       ~initial:2 ~evictions:(ref 0))

(* The same histories on [small_cache], from 16 NPB-synth jobs up, with
   a fixed QCheck seed: they must evict (at least once per history on
   average), or they check nothing of the boundary selection. *)
let warm_partition_evicting_churn () =
  let evictions = ref 0 and count = 40 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 25 |])
    (QCheck.Test.make ~count
       ~name:"persistent warm partition == cold under churn (cs = 1e5)"
       churn_scripts
       (warm_partition_under_churn ~platform:small_cache
          ~dataset:Model.Workload.NpbSynth ~initial:16 ~evictions));
  Alcotest.(check bool)
    (Printf.sprintf "%d evictions in %d histories" !evictions count)
    true (!evictions >= count)

let cold_partition_counts_ops () =
  let apps = random_apps ~seed:13 25 in
  let c = Online.Incremental.fresh_counters () in
  let subset = Oracle.Cold.partition ~counters:c ~platform apps in
  Alcotest.(check bool) "ops counted" true (c.Online.Incremental.partition_ops > 0);
  (* The hook observes the real builder: same subset as the unhooked call. *)
  Alcotest.(check bool) "same subset" true
    (subset = Oracle.Cold.partition ~platform apps)

(* --- refinement vs the oracle library's reference ----------------------- *)

let qcheck_refine_tracks_reference =
  QCheck.Test.make ~count:25 ~name:"refine tracks refine_reference (1e-2 rel)"
    seed_and_n
    (fun (seed, n) ->
      let apps = random_apps ~seed n in
      let x0 = alloc apps in
      let opt = Sched.Refine.refine ~platform ~apps ~x0 () in
      let ref_ = Oracle.Refine_reference.refine ~platform ~apps ~x0 () in
      (* Different roundings can stop the two fixed points at different
         iterates, but both descend from the same start to the same
         basin: makespans agree to far better than the model error. *)
      rel_err opt.Sched.Refine.makespan ref_.Sched.Refine.makespan <= 1e-2)

let qcheck_refine_never_degrades =
  QCheck.Test.make ~count:40 ~name:"refine never degrades its start" seed_and_n
    (fun (seed, n) ->
      let apps = random_apps ~seed n in
      let x0 = alloc apps in
      let k0 = Sched.Equalize.solve_makespan ~platform ~apps x0 in
      let iters = ref 0 in
      let r = Sched.Refine.refine ~iters ~platform ~apps ~x0 () in
      !iters > 0
      && r.Sched.Refine.improvement >= 0.
      && r.Sched.Refine.makespan <= k0 *. (1. +. 1e-12))

(* --- plain online events walk nothing ---------------------------------- *)

(* The counted twin of perfbench's live-1e5 workload, at n = 2 000: a
   Batched 16 service alternating submits and cancels while model time
   moves by a sliver, so nothing completes and one event in sixteen
   re-solves.  [State.sweeps] counts every pass over the live set; an
   event that neither re-solves nor completes a job must add none.  The
   one allowed exception is the earliest-finish rescan, when a cancel
   retires a job whose predicted finish is the earliest (the one the
   completion prediction was for; ties share the instant): one pass.
   The per-event integrator this replaced walked the live set four
   times per event. *)
let plain_events_sweep_nothing () =
  let n = 2_000 in
  let config =
    { Online.Service.default_config with policy = Online.Policy.Batched 16 }
  in
  let completions = ref 0 in
  let listener = function
    | Online.Service.Completed _ -> incr completions
    | Resolved _ -> ()
  in
  let lv = Online.Service.live_create ~config ~listener ~platform () in
  let st = Online.Service.live_state lv in
  let apps = synth ~seed:71 (n + 500) in
  for i = 0 to n - 1 do
    ignore (Online.Service.submit lv ~at:0. apps.(i) : Online.State.job)
  done;
  let dt = Option.get (Online.Service.last_makespan lv) *. 1e-7 in
  let plain = ref 0 and rescans = ref 0 in
  for e = 0 to 999 do
    let at = Online.Service.live_now lv +. dt in
    let epoch = Online.Service.live_epoch lv and done0 = !completions in
    let earliest =
      e mod 2 = 1
      && Online.State.predicted_finish (Option.get (Online.Service.find_job lv (e / 2)))
         = Online.State.next_finish st
    in
    let s0 = Online.State.sweeps st in
    if e mod 2 = 0 then
      ignore (Online.Service.submit lv ~at apps.(n + (e / 2)) : Online.State.job)
    else ignore (Online.Service.cancel lv ~at ~id:(e / 2) : bool);
    let swept = Online.State.sweeps st - s0 in
    if Online.Service.live_epoch lv = epoch && !completions = done0 then begin
      incr plain;
      if earliest then begin
        incr rescans;
        Alcotest.(check bool) (Printf.sprintf "event %d rescans at most once" e)
          true (swept <= 1)
      end
      else Alcotest.(check int) (Printf.sprintf "event %d walks nothing" e) 0 swept
    end
  done;
  Alcotest.(check int) "nothing completed" 0 !completions;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1000 events plain, %d rescans" !plain !rescans)
    true
    (!plain >= 900 && !rescans <= 10)

(* --- the boundary selection is linear under churn ------------------------ *)

(* The counted twin of live-1e5's re-solves, at n = 2 000 on
   [small_cache], where most jobs are evicted: a Batched 16 service
   that submits a new job and cancels the oldest, the churn perfbench's
   live-1e5 and wire-mixed drive, restored from a checkpoint half way.
   The quickselect over the eviction candidates must visit a bounded
   multiple of the live count in every re-solve, the first one after
   create and after restore included (nothing is carried between
   solves).  The bound is set from measurement: the worst re-solve of
   this stream visits 5.0 candidates per live job, 2 000 fresh
   instances of this size at most 4.9 (2.6 on average), and a pivot
   that is always the smallest candidate visits about 900. *)
let select_bound = 6.

let selection_is_linear_under_churn () =
  let n = 2_000 and events = 1_200 in
  let config =
    { Online.Service.default_config with policy = Online.Policy.Batched 16 }
  in
  let apps = synth ~seed:73 (n + events) in
  let lv = ref None and worst = ref 0. and last = ref 0 and evicted = ref 0 in
  let listener = function
    | Online.Service.Resolved _ ->
      let l = Option.get !lv in
      let c = Online.Service.live_counters l in
      let live = Online.State.live (Online.Service.live_state l) in
      let per_job =
        float_of_int (c.Online.Incremental.select_ops - !last)
        /. float_of_int (Array.length live)
      in
      worst := Float.max !worst per_job;
      last := c.Online.Incremental.select_ops;
      Array.iter (fun j -> if Online.State.cache j = 0. then incr evicted) live
    | Completed _ -> ()
  in
  let check what =
    Alcotest.(check bool)
      (Printf.sprintf "%s: at most %.2f candidates visited per live job" what !worst)
      true (!worst <= select_bound)
  in
  lv := Some (Online.Service.live_create ~config ~listener ~platform:small_cache ());
  for i = 0 to n - 1 do
    ignore (Online.Service.submit (Option.get !lv) ~at:0. apps.(i) : Online.State.job)
  done;
  let dt = Option.get (Online.Service.last_makespan (Option.get !lv)) *. 1e-7 in
  let churn lo hi =
    let l = Option.get !lv in
    for e = lo to hi - 1 do
      let at = Online.Service.live_now l +. dt in
      if e mod 2 = 0 then
        ignore (Online.Service.submit l ~at apps.(n + (e / 2)) : Online.State.job)
      else
        Alcotest.(check bool) "cancels a live job" true
          (Online.Service.cancel l ~at ~id:(e / 2))
    done
  in
  churn 0 (events / 2);
  check "after create";
  let resolves0 = Online.Service.live_epoch (Option.get !lv) in
  let persist = Online.Service.live_persist (Option.get !lv) in
  lv := Some (Online.Service.live_restore ~config ~listener ~platform:small_cache persist);
  last := 0;
  churn (events / 2) events;
  check "after restore";
  Alcotest.(check bool) "re-solved under churn" true
    (Online.Service.live_epoch (Option.get !lv) - resolves0 >= 30);
  Alcotest.(check bool)
    (Printf.sprintf "%d evictions across the re-solves" !evicted)
    true (!evicted > 0)

(* --- bounded state: a retired job leaves nothing behind ----------------- *)

(* The counted twin of a long-running daemon: [bounded_live] live jobs
   under Batched 16 and cancel-oldest/submit churn (model time moves by a
   sliver, so every retirement is a cancel), read after 10^4 and again
   after 10^5 retirements.  Each retirement is folded into running sums
   as it happens and nothing keeps the job, so at both points one
   checkpoint ([live_persist]) allocates the same minor words and the
   heap left after [Gc.compact] holds the same live words (the slack
   covers a one-off drift of about a hundred words between the two
   reads).  Keeping the retired jobs instead costs about 28 heap words
   each, and a checkpoint that re-folds them ten words each: the 90 000
   retirements between the reads would show as some 2.5 million heap
   words and 900 000 checkpoint words. *)
let bounded_live = 100
let bounded_persist_slack = 0.
let bounded_heap_slack = 256

let retirement_leaves_nothing_behind () =
  let config =
    { Online.Service.default_config with policy = Online.Policy.Batched 16 }
  in
  let apps = synth ~seed:75 bounded_live in
  let lv = Online.Service.live_create ~config ~platform () in
  Array.iter (fun a -> ignore (Online.Service.submit lv ~at:0. a : Online.State.job)) apps;
  let dt = Option.get (Online.Service.last_makespan lv) *. 1e-9 in
  let retired = ref 0 in
  let retire_until n =
    while !retired < n do
      let at = Online.Service.live_now lv +. dt in
      if not (Online.Service.cancel lv ~at ~id:!retired) then
        Alcotest.failf "job %d was not live" !retired;
      ignore
        (Online.Service.submit lv ~at:(at +. dt) apps.(!retired mod bounded_live)
          : Online.State.job);
      incr retired
    done
  in
  let measure n =
    retire_until n;
    let w0 = Gc.minor_words () in
    let p = Online.Service.live_persist lv in
    let words = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity p);
    Gc.compact ();
    (words, (Gc.stat ()).Gc.live_words)
  in
  let w4, h4 = measure 10_000 in
  let w5, h5 = measure 100_000 in
  Alcotest.(check int) "live set held" bounded_live
    (Online.State.live_count (Online.Service.live_state lv));
  if Float.abs (w5 -. w4) > bounded_persist_slack then
    Alcotest.failf "live_persist: %.0f minor words at 10^4 retired, %.0f at 10^5" w4 w5;
  if abs (h5 - h4) > bounded_heap_slack then
    Alcotest.failf "live heap: %d words at 10^4 retired, %d at 10^5" h4 h5

let () =
  Alcotest.run "perf"
    [
      ( "equalize",
        [ test "solve_makespan counts objective evaluations" solve_counts_iters ]
      );
      ( "illinois",
        [
          qtest qcheck_cols_matches_bisection;
          test "stops when the secant rounds onto an endpoint"
            illinois_stops_at_endpoint;
        ] );
      ( "kernel",
        [
          qtest qcheck_kernel_work_cost;
          qtest qcheck_kernel_derivative;
          test "support threshold bitwise equal" kernel_threshold_exact;
        ] );
      ( "partition",
        [
          qtest qcheck_warm_partition_under_churn;
          test "evicting churn: warm partition == cold"
            warm_partition_evicting_churn;
          test "cold partition ops hook" cold_partition_counts_ops;
        ] );
      ( "refine",
        [
          qtest qcheck_refine_tracks_reference;
          qtest qcheck_refine_never_degrades;
        ] );
      ( "online",
        [
          test "plain events walk nothing" plain_events_sweep_nothing;
          test "selection is linear under churn" selection_is_linear_under_churn;
          test "retired jobs leave no state behind" retirement_leaves_nothing_behind;
        ] );
    ]
