(* Properties guarding the solver hot-path overhaul.

   The contracts under test, in decreasing strictness:
   - workspace reuse is {e bit-identical} to fresh allocation (same
     root-finder core, different buffer provenance) — for
     [Equalize.solve_makespan] and [Equalize.schedule_k];
   - the online entry [Equalize.solve_cols] (Illinois, warm or cold)
     finds the paper entry's bisection root, on both sides of the
     2048-wide demand chunk;
   - the memoized {!Model.Kernel} matches the direct execution-model
     evaluation to <= 1e-12 relative (its factorisation reassociates one
     power), and its support threshold is bit-equal to
     {!Model.Power_law.min_useful_fraction};
   - the persistent warm partition behind [Incremental.solve_state]
     equals the cold eviction loop exactly across arbitrary
     arrival/departure/progress histories (not just on i.i.d. instances:
     the carried permutation must survive churn);
   - the optimized refinement tracks the kept naive reference and never
     degrades its starting point;
   - an online event that neither re-solves nor completes a job walks
     the live set zero times ([State.sweeps] counts every walk). *)

let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let random_apps ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.Random n

(* A plausible allocation for an instance: Theorem 3 capped fractions on
   the dominant partition (what the schedulers actually bisect at). *)
let alloc apps =
  let subset = Online.Incremental.cold_partition ~platform apps in
  Theory.Dominant.cache_allocation_capped ~platform ~apps subset

let seed_and_n = QCheck.(pair (int_bound 10_000) (int_range 1 40))

(* --- workspace reuse is bit-identical ---------------------------------- *)

let qcheck_ws_solve_bit_identical =
  let ws = Sched.Workspace.create () in
  QCheck.Test.make ~count:60 ~name:"solve_makespan with ws == without, bitwise"
    seed_and_n
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = alloc apps in
      let k_fresh = Sched.Equalize.solve_makespan ~platform ~apps x in
      (* Reusing one workspace across cases also exercises dirty-buffer
         reuse: leftovers from the previous instance must not leak in. *)
      let k_ws = Sched.Equalize.solve_makespan ~ws ~platform ~apps x in
      k_fresh = k_ws)

let qcheck_ws_schedule_bit_identical =
  let ws = Sched.Workspace.create () in
  QCheck.Test.make ~count:60 ~name:"schedule_k with ws == without, bitwise"
    seed_and_n
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = alloc apps in
      let s_fresh, k_fresh = Sched.Equalize.schedule_k ~platform ~apps x in
      let s_ws, k_ws = Sched.Equalize.schedule_k ~ws ~platform ~apps x in
      k_fresh = k_ws && s_fresh.Model.Schedule.allocs = s_ws.Model.Schedule.allocs)

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
             let direct = Sched.Refine.cost_derivative ~platform app x in
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
  ignore (Online.Incremental.solve_state inc ~elapsed:0. ~state:st ());
  let jobs = Online.State.live st in
  let cold =
    Online.Incremental.cold_partition ~platform
      (Array.map Online.State.remaining_app jobs)
  in
  Array.for_all2 (fun j c -> Online.State.cache j > 0. = c) jobs cold

(* Random histories: arrivals append fresh applications, departures
   cancel at a random position (shifting every later position, the worst
   case for the carried permutation), progress advances the clock under
   the installed allocation by half the time to the first completion.
   After every event the persistent warm partition must equal the cold
   eviction loop exactly. *)
let qcheck_warm_partition_under_churn =
  QCheck.Test.make ~count:40 ~name:"persistent warm partition == cold under churn"
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(int_range 5 30) (int_bound 99)))
    (fun (seed, script) ->
      let rng = Util.Rng.create seed in
      let st = Online.State.create platform in
      let inc = Online.Incremental.create () in
      let arrive () =
        let app = (Model.Workload.generate ~rng Model.Workload.Random 1).(0) in
        ignore (Online.State.add st ~app)
      in
      arrive ();
      arrive ();
      List.for_all
        (fun op ->
          let live = Online.State.live st in
          let n = Array.length live in
          (match op mod 3 with
          | 0 -> arrive ()
          | 1 -> if n > 1 then Online.State.cancel st live.(op mod n)
          | _ ->
            let dt = Online.State.next_finish st -. Online.State.now st in
            if Float.is_finite dt then
              Online.State.advance st ~to_:(Online.State.now st +. (0.5 *. dt)));
          solve_state_matches_cold inc st)
        script)

let cold_partition_counts_ops () =
  let apps = random_apps ~seed:13 25 in
  let c = Online.Incremental.fresh_counters () in
  let subset = Online.Incremental.cold_partition ~counters:c ~platform apps in
  Alcotest.(check bool) "ops counted" true (c.Online.Incremental.partition_ops > 0);
  (* The hook observes the real builder: same subset as the unhooked call. *)
  Alcotest.(check bool) "same subset" true
    (subset = Online.Incremental.cold_partition ~platform apps)

(* --- refinement vs the kept reference ---------------------------------- *)

let qcheck_refine_tracks_reference =
  QCheck.Test.make ~count:25 ~name:"refine tracks refine_reference (1e-2 rel)"
    seed_and_n
    (fun (seed, n) ->
      let apps = random_apps ~seed n in
      let x0 = alloc apps in
      let opt = Sched.Refine.refine ~platform ~apps ~x0 () in
      let ref_ = Sched.Refine.refine_reference ~platform ~apps ~x0 () in
      (* Different roundings can stop the two fixed points at different
         iterates, but both descend from the same start to the same
         basin: makespans agree to far better than the model error. *)
      rel_err opt.Sched.Refine.makespan ref_.Sched.Refine.makespan <= 1e-2)

let qcheck_refine_never_degrades =
  let ws = Sched.Workspace.create () in
  QCheck.Test.make ~count:40 ~name:"refine never degrades its start" seed_and_n
    (fun (seed, n) ->
      let apps = random_apps ~seed n in
      let x0 = alloc apps in
      let k0 = Sched.Equalize.solve_makespan ~platform ~apps x0 in
      let iters = ref 0 in
      let r = Sched.Refine.refine ~iters ~ws ~platform ~apps ~x0 () in
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

let () =
  Alcotest.run "perf"
    [
      ( "workspace",
        [
          qtest qcheck_ws_solve_bit_identical;
          qtest qcheck_ws_schedule_bit_identical;
          test "solve_makespan counts objective evaluations" solve_counts_iters;
        ] );
      ("illinois", [ qtest qcheck_cols_matches_bisection ]);
      ( "kernel",
        [
          qtest qcheck_kernel_work_cost;
          qtest qcheck_kernel_derivative;
          test "support threshold bitwise equal" kernel_threshold_exact;
        ] );
      ( "partition",
        [
          qtest qcheck_warm_partition_under_churn;
          test "cold partition ops hook" cold_partition_counts_ops;
        ] );
      ( "refine",
        [
          qtest qcheck_refine_tracks_reference;
          qtest qcheck_refine_never_degrades;
        ] );
      ("online", [ test "plain events walk nothing" plain_events_sweep_nothing ]);
    ]
