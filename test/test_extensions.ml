(* Tests for the extension modules: Sched.Integer_alloc, Sched.Refine
   (its gradient through the oracle library's reference), Cachesim.Ucp. *)

let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b
let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

let synth ?fixed_s ~seed n =
  Model.Workload.generate ?fixed_s ~rng:(Util.Rng.create seed)
    Model.Workload.NpbSynth n

(* --- Integer_alloc ------------------------------------------------------ *)

let int_alloc_sums_to_p () =
  let apps = synth ~seed:1 10 in
  let x = Array.make 10 0.1 in
  let counts = Sched.Integer_alloc.allocate ~platform ~apps ~x in
  Alcotest.(check int) "sums to p" 256 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun c -> Alcotest.(check bool) ">= 1" true (c >= 1)) counts

let int_alloc_single_app () =
  let apps = synth ~seed:2 1 in
  let counts = Sched.Integer_alloc.allocate ~platform ~apps ~x:[| 1. |] in
  Alcotest.(check (array int)) "everything" [| 256 |] counts

let int_alloc_optimal_vs_exhaustive () =
  (* Cross-check greedy optimality against exhaustive enumeration on a
     small platform (p = 6, n = 3: 10 compositions). *)
  let small = Model.Platform.make ~p:6. ~cs:32e9 () in
  for seed = 1 to 10 do
    let apps = synth ~seed 3 in
    let x = [| 0.5; 0.3; 0.2 |] in
    let greedy = Sched.Integer_alloc.makespan ~platform:small ~apps ~x in
    let best = ref infinity in
    for a = 1 to 4 do
      for b = 1 to 5 - a do
        let c = 6 - a - b in
        if c >= 1 then begin
          let m =
            Array.fold_left Float.max 0.
              (Array.mapi
                 (fun i p ->
                   Model.Exec_model.exe ~app:apps.(i) ~platform:small
                     ~p:(float_of_int p) ~x:x.(i))
                 [| a; b; c |])
          in
          if m < !best then best := m
        end
      done
    done;
    check_close ~eps:1e-9
      (Printf.sprintf "seed %d greedy is optimal" seed)
      1. (greedy /. !best)
  done

let int_alloc_beats_rounding () =
  (* The exact integral allocation can never lose to largest-remainder
     rounding (both are feasible integral points, greedy is optimal). *)
  for seed = 1 to 10 do
    let n = 8 + (seed mod 60) in
    let apps = synth ~seed n in
    let rng = Util.Rng.create (seed + 500) in
    match
      (Sched.Heuristics.run ~rng ~platform ~apps
         Sched.Heuristics.dominant_min_ratio)
        .Sched.Heuristics.schedule
    with
    | None -> ()
    | Some s ->
      let x = Array.map (fun a -> a.Model.Schedule.cache) s.Model.Schedule.allocs in
      let greedy = Sched.Integer_alloc.makespan ~platform ~apps ~x in
      let rounded = Model.Schedule.makespan (Sched.Rounding.integerize s) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d greedy <= rounding" seed)
        true
        (greedy <= rounded *. (1. +. 1e-9))
  done

let int_alloc_at_least_rational () =
  let apps = synth ~seed:3 12 in
  let x = Array.make 12 (1. /. 12.) in
  let rational = Sched.Equalize.solve_makespan ~platform ~apps x in
  let integral = Sched.Integer_alloc.makespan ~platform ~apps ~x in
  Alcotest.(check bool) "integral >= rational bound" true
    (integral >= rational *. (1. -. 1e-9))

let int_alloc_validation () =
  let apps = synth ~seed:4 3 in
  let tiny = Model.Platform.make ~p:2. ~cs:1e9 () in
  Alcotest.(check bool) "p < n" true
    (try
       ignore (Sched.Integer_alloc.allocate ~platform:tiny ~apps ~x:(Array.make 3 0.));
       false
     with Invalid_argument _ -> true);
  let frac = Model.Platform.make ~p:2.5 ~cs:1e9 () in
  Alcotest.(check bool) "non-integral p" true
    (try
       ignore (Sched.Integer_alloc.allocate ~platform:frac ~apps:(synth ~seed:5 2)
                 ~x:(Array.make 2 0.));
       false
     with Invalid_argument _ -> true)

let qcheck_int_alloc_valid =
  QCheck.Test.make ~name:"integral schedules are valid" ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 1 64))
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = Array.make n (1. /. float_of_int n) in
      let s = Sched.Integer_alloc.schedule ~platform ~apps ~x in
      Model.Schedule.is_valid s
      && Model.Schedule.total_procs s = 256.)

(* --- Refine ----------------------------------------------------------------- *)

let cache_pressure = Model.Platform.small_llc

let pressure_apps ~seed ~s n =
  Model.Workload.generate ~fixed_s:s ~fixed_m0:0.6
    ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let theorem3_start ~platform apps =
  Theory.Dominant.cache_allocation ~platform ~apps
    (Theory.Dominant.improve_to_dominant ~platform ~apps
       (Array.make (Array.length apps) true))

let refine_never_degrades () =
  for seed = 1 to 8 do
    let apps = pressure_apps ~seed ~s:0.1 12 in
    let x0 = theorem3_start ~platform:cache_pressure apps in
    let r = Sched.Refine.refine ~platform:cache_pressure ~apps ~x0 () in
    let base = Sched.Equalize.solve_makespan ~platform:cache_pressure ~apps x0 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d no degradation" seed)
      true
      (r.Sched.Refine.makespan <= base *. (1. +. 1e-12))
  done

let refine_noop_when_perfectly_parallel () =
  (* Theorem 3 is optimal for s = 0; the refiner must confirm it. *)
  let apps = pressure_apps ~seed:9 ~s:0. 10 in
  let x0 = theorem3_start ~platform:cache_pressure apps in
  let r = Sched.Refine.refine ~platform:cache_pressure ~apps ~x0 () in
  Alcotest.(check bool) "improvement below 0.01%" true
    (r.Sched.Refine.improvement < 1e-4)

let refine_improves_under_pressure () =
  (* With a big sequential fraction and high miss rates the refinement
     finds a strictly better split. *)
  let apps = pressure_apps ~seed:10 ~s:0.2 16 in
  let x0 = theorem3_start ~platform:cache_pressure apps in
  let r = Sched.Refine.refine ~platform:cache_pressure ~apps ~x0 () in
  Alcotest.(check bool) "at least 1% better" true
    (r.Sched.Refine.improvement > 0.01)

let refine_fractions_feasible () =
  let apps = pressure_apps ~seed:11 ~s:0.15 10 in
  let x0 = theorem3_start ~platform:cache_pressure apps in
  let r = Sched.Refine.refine ~platform:cache_pressure ~apps ~x0 () in
  let total = Array.fold_left ( +. ) 0. r.Sched.Refine.x in
  Alcotest.(check bool) "sums to at most 1" true (total <= 1. +. 1e-9);
  Array.iter
    (fun xi -> Alcotest.(check bool) "nonnegative" true (xi >= 0.))
    r.Sched.Refine.x

let refine_gradient_signs () =
  (* More cache never hurts: all partials nonpositive. *)
  let apps = pressure_apps ~seed:12 ~s:0.1 8 in
  let x = Array.make 8 0.125 in
  let k = Sched.Equalize.solve_makespan ~platform:cache_pressure ~apps x in
  let grads = Oracle.Refine_reference.gradient ~platform:cache_pressure ~apps ~x ~k in
  Array.iter
    (fun g -> Alcotest.(check bool) "dK/dx <= 0" true (g <= 0.))
    grads

let refine_gradient_matches_finite_difference () =
  let apps = pressure_apps ~seed:13 ~s:0.1 4 in
  let x = [| 0.3; 0.3; 0.2; 0.2 |] in
  let k = Sched.Equalize.solve_makespan ~platform:cache_pressure ~apps x in
  let grads = Oracle.Refine_reference.gradient ~platform:cache_pressure ~apps ~x ~k in
  let h = 1e-7 in
  Array.iteri
    (fun i g ->
      let x' = Array.copy x in
      x'.(i) <- x'.(i) +. h;
      let k' = Sched.Equalize.solve_makespan ~platform:cache_pressure ~apps x' in
      let fd = (k' -. k) /. h in
      Alcotest.(check bool)
        (Printf.sprintf "partial %d matches finite difference" i)
        true
        (abs_float (g -. fd) /. Float.max 1. (abs_float fd) < 1e-3))
    grads

let refine_schedule_valid () =
  let apps = pressure_apps ~seed:14 ~s:0.1 10 in
  let x0 = theorem3_start ~platform:cache_pressure apps in
  let s = Sched.Refine.schedule ~platform:cache_pressure ~apps ~x0 () in
  Alcotest.(check bool) "valid" true (Model.Schedule.is_valid s);
  Alcotest.(check bool) "equal finish" true
    (Model.Schedule.equal_finish ~eps:1e-5 s)

let refine_validation () =
  Alcotest.(check bool) "empty" true
    (try
       ignore (Sched.Refine.refine ~platform ~apps:[||] ~x0:[||] ());
       false
     with Invalid_argument _ -> true)

(* --- Ucp ------------------------------------------------------------------- *)

let ucp_curve_monotone () =
  let rng = Util.Rng.create 23 in
  let trace = Cachesim.Trace.zipf ~rng ~blocks:500 ~length:10_000 () in
  let curve =
    Cachesim.Ucp.utility_curve (Cachesim.Mattson.analyze trace) ~sets:32 ~ways:8
  in
  Alcotest.(check int) "length ways+1" 9 (Array.length curve);
  Alcotest.(check int) "zero ways miss everything" 10_000 curve.(0);
  for k = 1 to 8 do
    Alcotest.(check bool) "nonincreasing" true (curve.(k) <= curve.(k - 1))
  done

let ucp_lookahead_prefers_utility () =
  (* Tenant 0 gains a lot from ways, tenant 1 gains nothing: all ways go
     to tenant 0. *)
  let curves =
    [|
      [| 100; 50; 25; 12; 6 |];
      [| 100; 100; 100; 100; 100 |];
    |]
  in
  let alloc = Cachesim.Ucp.lookahead ~curves ~ways:4 in
  Alcotest.(check (array int)) "all ways to the useful tenant" [| 4; 0 |] alloc

let ucp_lookahead_splits_symmetric () =
  let c = [| 100; 60; 30; 20; 15 |] in
  let alloc = Cachesim.Ucp.lookahead ~curves:[| c; c |] ~ways:4 in
  Alcotest.(check int) "uses all ways" 4 (alloc.(0) + alloc.(1));
  Alcotest.(check bool) "balanced" true (abs (alloc.(0) - alloc.(1)) <= 2)

let ucp_lookahead_handles_plateau () =
  (* Non-convex curve: no gain for 1 way, big gain at 3 (the case the
     lookahead exists for). *)
  let curves = [| [| 100; 100; 100; 10; 10 |]; [| 100; 90; 80; 70; 60 |] |] in
  let alloc = Cachesim.Ucp.lookahead ~curves ~ways:4 in
  (* Density of the 3-way block for tenant 0 is 30/way; tenant 1's single
     ways are 10/way: tenant 0 must get its 3 ways. *)
  Alcotest.(check int) "plateau jumped" 3 alloc.(0)

let ucp_lookahead_stops_when_useless () =
  let curves = [| [| 50; 50; 50 |]; [| 70; 70; 70 |] |] in
  let alloc = Cachesim.Ucp.lookahead ~curves ~ways:2 in
  Alcotest.(check (array int)) "nobody benefits" [| 0; 0 |] alloc

let ucp_total_misses () =
  let curves = [| [| 10; 5; 1 |]; [| 20; 8; 2 |] |] in
  Alcotest.(check int) "sum" 13 (Cachesim.Ucp.total_misses ~curves [| 1; 1 |])

let ucp_beats_equal_split () =
  (* On heterogeneous tenants UCP's assignment has at most the misses of
     the equal split (it optimizes exactly that objective). *)
  let rng = Util.Rng.create 24 in
  let traces =
    [|
      Cachesim.Trace.zipf ~rng ~s:1.1 ~blocks:4000 ~length:20_000 ();
      Cachesim.Trace.uniform ~rng ~blocks:6000 ~length:20_000;
      Cachesim.Trace.working_sets ~rng ~set_blocks:100 ~sets:8 ~dwell:500
        ~length:20_000;
      Cachesim.Trace.sequential ~blocks:50 ~length:20_000;
    |]
  in
  let sets = 64 and ways = 16 in
  let curves =
    Array.map
      (fun t -> Cachesim.Ucp.utility_curve (Cachesim.Mattson.analyze t) ~sets ~ways)
      traces
  in
  let ucp = Cachesim.Ucp.lookahead ~curves ~ways in
  let equal = Array.make 4 (ways / 4) in
  Alcotest.(check bool) "UCP <= equal" true
    (Cachesim.Ucp.total_misses ~curves ucp
    <= Cachesim.Ucp.total_misses ~curves equal)

let ucp_validation () =
  Alcotest.(check bool) "empty" true
    (try
       ignore (Cachesim.Ucp.lookahead ~curves:[||] ~ways:4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong length" true
    (try
       ignore (Cachesim.Ucp.lookahead ~curves:[| [| 1; 2 |] |] ~ways:4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "increasing curve" true
    (try
       ignore (Cachesim.Ucp.lookahead ~curves:[| [| 1; 2; 3; 4; 5 |] |] ~ways:4);
       false
     with Invalid_argument _ -> true)

let qcheck_ucp_within_budget =
  QCheck.Test.make ~name:"lookahead never exceeds the way budget" ~count:100
    QCheck.(pair (int_range 1 5) (int_bound 10_000))
    (fun (tenants, seed) ->
      let rng = Util.Rng.create seed in
      let ways = 8 in
      let curves =
        Array.init tenants (fun _ ->
            (* Random nonincreasing curve. *)
            let c = Array.make (ways + 1) 0 in
            c.(0) <- 1000;
            for k = 1 to ways do
              c.(k) <- max 0 (c.(k - 1) - Util.Rng.int rng 300)
            done;
            c)
      in
      let alloc = Cachesim.Ucp.lookahead ~curves ~ways in
      Array.fold_left ( + ) 0 alloc <= ways
      && Array.for_all (fun a -> a >= 0 && a <= ways) alloc)

let () =
  Alcotest.run "extensions"
    [
      ( "integer_alloc",
        [
          test "sums to p" int_alloc_sums_to_p;
          test "single application" int_alloc_single_app;
          test "greedy = exhaustive optimum" int_alloc_optimal_vs_exhaustive;
          test "never loses to rounding" int_alloc_beats_rounding;
          test "at least the rational bound" int_alloc_at_least_rational;
          test "validation" int_alloc_validation;
          qtest qcheck_int_alloc_valid;
        ] );
      ( "refine",
        [
          test "never degrades" refine_never_degrades;
          test "no-op when perfectly parallel" refine_noop_when_perfectly_parallel;
          test "improves under cache pressure" refine_improves_under_pressure;
          test "fractions stay feasible" refine_fractions_feasible;
          test "gradient signs" refine_gradient_signs;
          test "gradient = finite difference" refine_gradient_matches_finite_difference;
          test "refined schedule valid" refine_schedule_valid;
          test "validation" refine_validation;
        ] );
      ( "ucp",
        [
          test "utility curve" ucp_curve_monotone;
          test "prefers the utility tenant" ucp_lookahead_prefers_utility;
          test "splits symmetric tenants" ucp_lookahead_splits_symmetric;
          test "jumps plateaus" ucp_lookahead_handles_plateau;
          test "stops when useless" ucp_lookahead_stops_when_useless;
          test "total misses" ucp_total_misses;
          test "beats equal split" ucp_beats_equal_split;
          test "validation" ucp_validation;
          qtest qcheck_ucp_within_budget;
        ] );
    ]
