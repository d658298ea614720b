(* Cross-module property-based tests: a battery of invariants that must
   hold on randomly generated instances, complementing the per-module
   example-based suites. *)

let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

let synth ?fixed_s ~seed n =
  Model.Workload.generate ?fixed_s ~rng:(Util.Rng.create seed)
    Model.Workload.NpbSynth n

let random_ds ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.Random n

let seed_n =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "(seed %d, n %d)" seed n)
    QCheck.Gen.(pair (int_bound 100_000) (int_range 1 32))

(* --- Model invariants -------------------------------------------------- *)

let exe_decreasing_in_cache =
  QCheck.Test.make ~name:"Exe is nonincreasing in the cache fraction"
    ~count:200
    QCheck.(pair (int_bound 100_000) (pair (float_range 0. 0.9) (float_range 0.01 0.99)))
    (fun (seed, (x1, frac)) ->
      let apps = random_ds ~seed 1 in
      let x2 = x1 +. ((1. -. x1) *. frac) in
      let e x = Model.Exec_model.exe ~app:apps.(0) ~platform ~p:4. ~x in
      e x2 <= e x1 +. 1e-9)

let exe_decreasing_in_procs =
  QCheck.Test.make ~name:"Exe is decreasing in the processor count" ~count:200
    QCheck.(pair (int_bound 100_000) (pair (float_range 0.5 100.) (float_range 1.01 4.)))
    (fun (seed, (p, mult)) ->
      let apps = random_ds ~seed 1 in
      let e p = Model.Exec_model.exe ~app:apps.(0) ~platform ~p ~x:0.5 in
      e (p *. mult) < e p)

let footprint_caps_fraction =
  QCheck.Test.make ~name:"cache beyond the footprint never helps" ~count:100
    QCheck.(pair (int_bound 100_000) (float_range 0.05 0.5))
    (fun (seed, cap_frac) ->
      let rng = Util.Rng.create seed in
      let footprint = cap_frac *. platform.Model.Platform.cs in
      let app =
        Model.App.make ~footprint
          ~w:(Util.Rng.uniform rng 1e8 1e12)
          ~f:(Util.Rng.uniform rng 0.1 0.9)
          ~m0:(Util.Rng.uniform rng 1e-3 1e-1)
          ()
      in
      let at_cap = Model.Exec_model.miss_ratio ~app ~platform cap_frac in
      let beyond = Model.Exec_model.miss_ratio ~app ~platform 1. in
      at_cap = beyond)

let workload_reproducible =
  QCheck.Test.make ~name:"workloads are a pure function of the seed" ~count:100
    seed_n (fun (seed, n) ->
      let a = random_ds ~seed n and b = random_ds ~seed n in
      Array.for_all2
        (fun (x : Model.App.t) (y : Model.App.t) ->
          x.w = y.Model.App.w && x.s = y.Model.App.s && x.f = y.Model.App.f
          && x.m0 = y.Model.App.m0)
        a b)

(* --- Theory invariants --------------------------------------------------- *)

let theorem3_fractions_exceed_threshold =
  QCheck.Test.make
    ~name:"dominant partitions allocate above the Eq. 3 threshold" ~count:100
    seed_n (fun (seed, n) ->
      let apps = synth ~fixed_s:0. ~seed n in
      let subset = Array.make n true in
      QCheck.assume (Theory.Dominant.is_dominant ~platform ~apps subset);
      let x = Theory.Dominant.cache_allocation ~platform ~apps subset in
      Array.for_all2
        (fun app xi ->
          xi > Model.Power_law.min_useful_fraction ~app ~platform)
        apps x)

let improve_monotone =
  QCheck.Test.make
    ~name:"Theorem 2 improvement never increases the Lemma 3 makespan"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 10))
    (fun (seed, n) ->
      (* The tiny cache forces non-dominant full sets. *)
      let tiny = Model.Platform.make ~p:256. ~cs:1e6 () in
      let apps = synth ~fixed_s:0. ~seed n in
      let subset = ref (Array.make n true) in
      let value s = Theory.Dominant.partition_makespan ~platform:tiny ~apps s in
      let ok = ref true in
      let continue_ = ref true in
      while !continue_ do
        match Theory.Dominant.improve ~platform:tiny ~apps !subset with
        | None -> continue_ := false
        | Some next ->
          if value next > value !subset +. 1e-6 then ok := false;
          subset := next
      done;
      !ok)

let exact_never_worse_than_full_or_empty =
  QCheck.Test.make ~name:"exact optimum beats both trivial partitions"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 1 8))
    (fun (seed, n) ->
      let apps = synth ~fixed_s:0. ~seed n in
      let e = (Theory.Exact.optimal ~platform ~apps ()).Theory.Exact.makespan in
      let full = Theory.Dominant.partition_makespan ~platform ~apps (Array.make n true) in
      let none = Theory.Dominant.partition_makespan ~platform ~apps (Array.make n false) in
      e <= full +. 1e-9 && e <= none +. 1e-9)

let bounds_sandwich =
  QCheck.Test.make ~name:"bounds sandwich every heuristic" ~count:60 seed_n
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 1) in
      let lower = Theory.Bounds.lower_bound ~platform ~apps in
      let upper = Theory.Bounds.upper_bound ~platform ~apps in
      List.for_all
        (fun policy ->
          let m = Sched.Heuristics.makespan ~rng ~platform ~apps policy in
          lower <= m *. (1. +. 1e-9)
          && (policy = Sched.Heuristics.AllProcCache
             || policy = Sched.Heuristics.Fair
             || m <= upper *. (1. +. 1e-9)))
        Sched.Heuristics.all)

let knapsack_dp_vs_bruteforce =
  QCheck.Test.make ~name:"knapsack DP matches brute force" ~count:80
    QCheck.(pair (int_bound 100_000) (int_range 1 10))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let items =
        Array.init n (fun _ ->
            {
              Theory.Knapsack.size = 1 + Util.Rng.int rng 12;
              value = 1 + Util.Rng.int rng 30;
            })
      in
      let capacity = 1 + Util.Rng.int rng 25 in
      let dp, _ = Theory.Knapsack.solve_max items capacity in
      let best = ref 0 in
      for mask = 0 to (1 lsl n) - 1 do
        let size = ref 0 and value = ref 0 in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then begin
            size := !size + items.(i).Theory.Knapsack.size;
            value := !value + items.(i).Theory.Knapsack.value
          end
        done;
        if !size <= capacity && !value > !best then best := !value
      done;
      dp = !best)

(* --- Sched invariants --------------------------------------------------- *)

let equalize_monotone_in_cache =
  QCheck.Test.make
    ~name:"equalized makespan never increases when one app gets more cache"
    ~count:60 seed_n (fun (seed, n) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 2) in
      let base = Array.make n (0.5 /. float_of_int n) in
      let k0 = Sched.Equalize.solve_makespan ~platform ~apps base in
      let i = Util.Rng.int rng n in
      let richer = Array.copy base in
      richer.(i) <- richer.(i) +. 0.25;
      let k1 = Sched.Equalize.solve_makespan ~platform ~apps richer in
      k1 <= k0 +. (1e-9 *. k0))

let heuristics_all_valid =
  QCheck.Test.make ~name:"every policy yields a valid positive makespan"
    ~count:40 seed_n (fun (seed, n) ->
      let apps = random_ds ~seed n in
      let rng = Util.Rng.create (seed + 3) in
      List.for_all
        (fun policy ->
          let r = Sched.Heuristics.run ~rng ~platform ~apps policy in
          r.Sched.Heuristics.makespan > 0.
          &&
          match r.Sched.Heuristics.schedule with
          | None -> policy = Sched.Heuristics.AllProcCache
          | Some s -> Model.Schedule.is_valid s)
        Sched.Heuristics.all)

let dominant_scale_invariant =
  QCheck.Test.make
    ~name:"scaling all works equally leaves the partition choice unchanged"
    ~count:60
    QCheck.(pair seed_n (float_range 0.5 2.0))
    (fun ((seed, n), scale) ->
      let apps = synth ~fixed_s:0. ~seed n in
      let scaled = Array.map (fun a -> Model.App.with_w a (a.Model.App.w *. scale)) apps in
      let rng () = Util.Rng.create (seed + 4) in
      let subset apps =
        Sched.Partition_builder.build Sched.Partition_builder.Dominant
          Sched.Choice.MinRatio ~rng:(rng ()) ~platform ~apps
      in
      subset apps = subset scaled)

let refine_feasible_everywhere =
  QCheck.Test.make ~name:"refinement output is always feasible" ~count:30
    QCheck.(pair (int_bound 100_000) (int_range 2 12))
    (fun (seed, n) ->
      let apps =
        Model.Workload.generate ~fixed_m0:0.5
          ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n
      in
      let small = Model.Platform.small_llc in
      let x0 =
        Theory.Dominant.cache_allocation ~platform:small ~apps
          (Theory.Dominant.improve_to_dominant ~platform:small ~apps
             (Array.make n true))
      in
      let r = Sched.Refine.refine ~platform:small ~apps ~x0 () in
      Array.fold_left ( +. ) 0. r.Sched.Refine.x <= 1. +. 1e-9
      && Array.for_all (fun xi -> xi >= 0.) r.Sched.Refine.x
      && r.Sched.Refine.improvement >= 0.)

(* --- Cachesim invariants -------------------------------------------------- *)

let lru_monotone_in_capacity =
  QCheck.Test.make ~name:"LRU misses nonincreasing in capacity (inclusion)"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 1 100))
    (fun (seed, capacity) ->
      let rng = Util.Rng.create seed in
      let trace = Cachesim.Trace.zipf ~rng ~blocks:150 ~length:600 () in
      Cachesim.Lru.run ~capacity:(capacity + 10) trace
      <= Cachesim.Lru.run ~capacity trace)

let partition_isolated_random_splits =
  QCheck.Test.make ~name:"partition isolation holds for random way splits"
    ~count:30
    QCheck.(pair (int_bound 100_000) (int_range 1 7))
    (fun (seed, ways0) ->
      let rng = Util.Rng.create seed in
      let t0 = Cachesim.Trace.zipf ~rng ~blocks:300 ~length:2000 () in
      let t1 = Cachesim.Trace.uniform ~rng ~blocks:300 ~length:2000 in
      let sets = 32 and ways = 8 in
      let shared = Cachesim.Partition.create ~sets ~ways ~tenants:2 in
      Cachesim.Partition.assign shared ~tenant:0 ~way_count:ways0;
      Cachesim.Partition.assign shared ~tenant:1 ~way_count:(ways - ways0);
      Cachesim.Partition.run_interleaved shared
        [| (0, t0); (1, t1) |]
        ~schedule:`Round_robin;
      Cachesim.Partition.tenant_misses shared 0
      = Cachesim.Set_assoc.run ~sets ~ways:ways0 t0
      && Cachesim.Partition.tenant_misses shared 1
         = Cachesim.Set_assoc.run ~sets ~ways:(ways - ways0) t1)

let ucp_never_worse_than_any_split =
  (* On concave utility curves (diminishing returns) the greedy lookahead
     is provably optimal, so it must beat any random feasible split.  (On
     arbitrary monotone curves it is only a heuristic.) *)
  QCheck.Test.make
    ~name:"UCP lookahead beats random splits on concave curves" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 2 4))
    (fun (seed, tenants) ->
      let rng = Util.Rng.create seed in
      let ways = 8 in
      let curves =
        Array.init tenants (fun _ ->
            let gains = Array.init ways (fun _ -> Util.Rng.int rng 150) in
            Array.sort (fun a b -> compare b a) gains;
            let c = Array.make (ways + 1) 0 in
            c.(0) <- 1500 + Util.Rng.int rng 500;
            for k = 1 to ways do
              c.(k) <- max 0 (c.(k - 1) - gains.(k - 1))
            done;
            c)
      in
      let ucp_alloc = Cachesim.Ucp.lookahead ~curves ~ways in
      let ucp_misses = Cachesim.Ucp.total_misses ~curves ucp_alloc in
      let random_alloc = Array.make tenants 0 in
      let remaining = ref ways in
      for i = 0 to tenants - 1 do
        let a = Util.Rng.int rng (!remaining + 1) in
        random_alloc.(i) <- a;
        remaining := !remaining - a
      done;
      ucp_misses <= Cachesim.Ucp.total_misses ~curves random_alloc)

(* --- Simulator invariants --------------------------------------------------- *)

let des_matches_model_every_policy =
  QCheck.Test.make ~name:"DES equals the model for every equalized policy"
    ~count:20 seed_n (fun (seed, n) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 5) in
      List.for_all
        (fun policy ->
          match (Sched.Heuristics.run ~rng ~platform ~apps policy).schedule with
          | None -> true
          | Some s -> Simulator.Coschedule_sim.model_error s < 1e-9)
        Sched.Heuristics.[ dominant_min_ratio; Fair; ZeroCache; RandomPart ])

let redistribution_never_slower =
  QCheck.Test.make ~name:"work-conserving redistribution never hurts"
    ~count:30 seed_n (fun (seed, n) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 6) in
      match (Sched.Heuristics.run ~rng ~platform ~apps Sched.Heuristics.Fair).schedule with
      | None -> true
      | Some s ->
        let base = (Simulator.Coschedule_sim.run s).Simulator.Coschedule_sim.makespan in
        let wc =
          (Simulator.Coschedule_sim.run
             ~options:
               {
                 Simulator.Coschedule_sim.default_options with
                 redistribute_procs = true;
               }
             s)
            .Simulator.Coschedule_sim.makespan
        in
        wc <= base *. (1. +. 1e-9))

(* --- Campaign invariants --------------------------------------------------- *)

let campaign_jobs_invariant =
  (* The determinism guarantee of the campaign engine: sweep rows are
     bit-identical whatever the worker-domain count, because trial RNGs
     are pre-split before dispatch and statistics merge in trial order.
     The policy set deliberately includes RNG consumers (RandomPart). *)
  QCheck.Test.make ~name:"sweep rows identical for jobs=1 and jobs=8" ~count:5
    QCheck.(int_bound 100_000)
    (fun seed ->
      let fig jobs =
        let config =
          { Experiments.Runner.default_config with trials = 4; seed; jobs }
        in
        Experiments.Runner.sweep ~config ~id:"prop" ~title:"t" ~xlabel:"n"
          ~values:[ 2.; 5. ]
          ~gen:(fun v rng ->
            {
              Experiments.Runner.platform;
              apps =
                Model.Workload.generate ~rng Model.Workload.NpbSynth
                  (int_of_float v);
            })
          ~policies:
            Sched.Heuristics.[ dominant_min_ratio; Fair; RandomPart ]
          ()
      in
      fig 1 = fig 8)

let general_amdahl_equivalence =
  QCheck.Test.make ~name:"General solver = Equalize on Amdahl instances"
    ~count:30 seed_n (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = Array.make n (1. /. float_of_int n) in
      let k = Sched.Equalize.solve_makespan ~platform ~apps x in
      let r = Sched.General.solve ~platform ~apps:(Sched.General.of_apps apps) ~x in
      abs_float (r.Sched.General.makespan -. k) /. k < 1e-7)

let () =
  Alcotest.run "properties"
    [
      ( "model",
        [
          qtest exe_decreasing_in_cache;
          qtest exe_decreasing_in_procs;
          qtest footprint_caps_fraction;
          qtest workload_reproducible;
        ] );
      ( "theory",
        [
          qtest theorem3_fractions_exceed_threshold;
          qtest improve_monotone;
          qtest exact_never_worse_than_full_or_empty;
          qtest bounds_sandwich;
          qtest knapsack_dp_vs_bruteforce;
        ] );
      ( "sched",
        [
          qtest equalize_monotone_in_cache;
          qtest heuristics_all_valid;
          qtest dominant_scale_invariant;
          qtest refine_feasible_everywhere;
        ] );
      ( "cachesim",
        [
          qtest lru_monotone_in_capacity;
          qtest partition_isolated_random_splits;
          qtest ucp_never_worse_than_any_split;
        ] );
      ( "simulator",
        [
          qtest des_matches_model_every_policy;
          qtest redistribution_never_slower;
          qtest general_amdahl_equivalence;
        ] );
      ("campaign", [ qtest campaign_jobs_invariant ]);
    ]
