let dom = Sched.Heuristics.dominant_heuristics
let dmr = Sched.Heuristics.dominant_min_ratio
let dmr_name = Sched.Heuristics.name dmr
let apc_name = Sched.Heuristics.name Sched.Heuristics.AllProcCache

(* The comparison set of Section 6.3: AllProcCache, DominantMinRatio,
   RandomPart, Fair, 0cache. *)
let comparison =
  Sched.Heuristics.[ AllProcCache; dominant_min_ratio; RandomPart; Fair; ZeroCache ]

let napps_values = [ 1.; 2.; 4.; 8.; 16.; 32.; 50.; 64.; 96.; 128.; 192.; 256. ]
let procs_values = [ 16.; 32.; 64.; 96.; 128.; 160.; 192.; 224.; 256. ]
let seq_values = [ 0.001; 0.01; 0.03; 0.05; 0.08; 0.11; 0.15 ]
let miss_values = [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
let ls_values = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let gen ?fixed_s ?fixed_m0 ~dataset ~platform n rng =
  {
    Runner.platform;
    apps = Model.Workload.generate ?fixed_s ?fixed_m0 ~rng dataset n;
  }

(* Sweep over the number of applications. *)
let napps_gen ?fixed_s ?fixed_m0 ~dataset ~platform v rng =
  gen ?fixed_s ?fixed_m0 ~dataset ~platform (int_of_float v) rng

(* Sweep over the processor count. *)
let procs_gen ?fixed_s ~dataset ~napps v rng =
  let platform = Model.Platform.with_p Model.Platform.paper_default v in
  gen ?fixed_s ~dataset ~platform napps rng

(* Sweep over the (uniform) sequential fraction. *)
let seq_gen ~dataset ~napps v rng =
  gen ~fixed_s:v ~dataset ~platform:Model.Platform.paper_default napps rng

(* Sweep over the baseline miss rate, on the small 1 GB LLC. *)
let miss_gen ~napps v rng =
  gen ~fixed_m0:v ~dataset:Model.Workload.NpbSynth
    ~platform:Model.Platform.small_llc napps rng

(* Sweep over the cache latency ls. *)
let ls_gen ~napps v rng =
  let platform = Model.Platform.with_ls Model.Platform.paper_default v in
  gen ~fixed_s:1e-4 ~dataset:Model.Workload.NpbSynth ~platform napps rng

let both_normalizations fig =
  [ Report.normalize_by fig apc_name; Report.normalize_by fig dmr_name ]

(* Fold fixed-width campaign payloads into one Online accumulator per
   column, in trial order (bit-identical to the historical sequential
   accumulation). *)
let online_fold ~ncols (outcome : Campaign.outcome) =
  let accs = Array.init ncols (fun _ -> Util.Stats.Online.create ()) in
  Array.iter
    (fun row -> Array.iteri (fun j v -> Util.Stats.Online.add accs.(j) v) row)
    (Campaign.ok_results outcome);
  accs

(* Failed trials leave accumulators short, possibly empty: an empty fold
   must surface as nan in the figure, never as a silent 0. *)
let mean_or_nan acc =
  if Util.Stats.Online.count acc = 0 then Float.nan
  else Util.Stats.Online.mean acc

let max_or_nan acc =
  if Util.Stats.Online.count acc = 0 then Float.nan
  else Util.Stats.Online.max acc

let fig1 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig1"
      ~title:"Six dominant-partition heuristics, NPB-SYNTH, 256 processors \
              (normalized by AllProcCache)"
      ~xlabel:"#apps" ~values:napps_values
      ~gen:(napps_gen ~dataset:Model.Workload.NpbSynth
              ~platform:Model.Platform.paper_default)
      ~policies:(Sched.Heuristics.AllProcCache :: dom)
      ()
  in
  [ Report.normalize_by fig apc_name ]

let fig2 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig2"
      ~title:"Impact of cache miss rate, 16 apps, 1 GB LLC (normalized by \
              DominantMinRatio)"
      ~xlabel:"miss rate" ~values:miss_values ~gen:(miss_gen ~napps:16)
      ~policies:dom ()
  in
  [ Report.normalize_by fig dmr_name ]

let fig3 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig3"
      ~title:"Impact of the number of applications, NPB-SYNTH, 256 processors"
      ~xlabel:"#apps" ~values:napps_values
      ~gen:(napps_gen ~dataset:Model.Workload.NpbSynth
              ~platform:Model.Platform.paper_default)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig4 ?config () =
  (* ratio r = p / n with p fixed at 256: n = 256 / r. *)
  let ratios = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ] in
  let gen_ratio r rng =
    let n = max 2 (int_of_float (256. /. r)) in
    gen ~dataset:Model.Workload.NpbSynth ~platform:Model.Platform.paper_default
      n rng
  in
  let fig =
    Runner.sweep ?config ~id:"fig4"
      ~title:"Impact of the average number of processors per application \
              (p = 256, n = p/ratio; normalized by DominantMinRatio)"
      ~xlabel:"procs/app" ~values:ratios ~gen:gen_ratio ~policies:comparison ()
  in
  [ Report.normalize_by fig dmr_name ]

let fig5 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig5"
      ~title:"Impact of the number of processors, 16 apps, NPB-SYNTH"
      ~xlabel:"#procs" ~values:procs_values
      ~gen:(procs_gen ~dataset:Model.Workload.NpbSynth ~napps:16)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig6 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig6"
      ~title:"Impact of the sequential fraction, 16 apps, NPB-SYNTH, 256 \
              processors"
      ~xlabel:"seq fraction" ~values:seq_values
      ~gen:(seq_gen ~dataset:Model.Workload.NpbSynth ~napps:16)
      ~policies:comparison ()
  in
  both_normalizations fig

let repartition_figures ?config ~id ~dataset () =
  let policies = Sched.Heuristics.[ dominant_min_ratio; Fair; ZeroCache ] in
  let data =
    Runner.repartition ?config ~values:napps_values
      ~gen:(napps_gen ~dataset ~platform:Model.Platform.paper_default)
      ~policies ()
  in
  let stat_columns f =
    List.concat_map
      (fun p ->
        let n = Sched.Heuristics.name p in
        [ n ^ ":avg"; n ^ ":min"; n ^ ":max" ])
      policies
    |> fun cols -> (cols, f)
  in
  let procs_cols, _ = stat_columns () in
  let rows_of extract =
    List.map
      (fun (v, stats) ->
        ( v,
          List.concat_map
            (fun (s : Runner.repartition_stat) ->
              let a, mn, mx = extract s in
              [ a; mn; mx ])
            stats ))
      data
  in
  [
    Report.make ~id:(id ^ "-procs")
      ~title:"Processor repartition (average/min/max per application)"
      ~xlabel:"#apps" ~columns:procs_cols
      ~rows:(rows_of (fun s -> (s.avg_procs, s.min_procs, s.max_procs)));
    Report.make ~id:(id ^ "-cache")
      ~title:"Cache repartition (average/min/max per application)"
      ~xlabel:"#apps" ~columns:procs_cols
      ~rows:(rows_of (fun s -> (s.avg_cache, s.min_cache, s.max_cache)));
  ]

let fig7 ?config () =
  repartition_figures ?config ~id:"fig7" ~dataset:Model.Workload.NpbSynth ()

let fig8 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig8"
      ~title:"Impact of the number of applications, RANDOM data set"
      ~xlabel:"#apps" ~values:napps_values
      ~gen:(napps_gen ~dataset:Model.Workload.Random
              ~platform:Model.Platform.paper_default)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig9 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig9"
      ~title:"Impact of the number of processors, NPB-SYNTH, 64 apps \
              (normalized by DominantMinRatio)"
      ~xlabel:"#procs" ~values:procs_values
      ~gen:(procs_gen ~dataset:Model.Workload.NpbSynth ~napps:64)
      ~policies:comparison ()
  in
  [ Report.normalize_by fig dmr_name ]

let fig10 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig10"
      ~title:"Impact of the number of processors, NPB-6 (6 apps)"
      ~xlabel:"#procs" ~values:procs_values
      ~gen:(procs_gen ~dataset:Model.Workload.Npb6 ~napps:6)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig11 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig11"
      ~title:"Impact of the number of processors, RANDOM, 16 apps"
      ~xlabel:"#procs" ~values:procs_values
      ~gen:(procs_gen ~dataset:Model.Workload.Random ~napps:16)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig12 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig12"
      ~title:"Impact of the number of processors, RANDOM, 64 apps \
              (normalized by DominantMinRatio)"
      ~xlabel:"#procs" ~values:procs_values
      ~gen:(procs_gen ~dataset:Model.Workload.Random ~napps:64)
      ~policies:comparison ()
  in
  [ Report.normalize_by fig dmr_name ]

let fig13 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig13"
      ~title:"Impact of the sequential fraction, NPB-6"
      ~xlabel:"seq fraction" ~values:seq_values
      ~gen:(seq_gen ~dataset:Model.Workload.Npb6 ~napps:6)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig14 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig14"
      ~title:"Impact of the sequential fraction, RANDOM, 16 apps"
      ~xlabel:"seq fraction" ~values:seq_values
      ~gen:(seq_gen ~dataset:Model.Workload.Random ~napps:16)
      ~policies:comparison ()
  in
  both_normalizations fig

let fig15 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig15"
      ~title:"Impact of the cache latency ls, NPB-SYNTH, 16 apps, s = 1e-4 \
              (normalized by AllProcCache)"
      ~xlabel:"ls" ~values:ls_values ~gen:(ls_gen ~napps:16)
      ~policies:comparison ()
  in
  [ Report.normalize_by fig apc_name ]

let fig16 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig16"
      ~title:"Impact of the cache latency ls, NPB-SYNTH, 64 apps \
              (normalized by AllProcCache)"
      ~xlabel:"ls" ~values:ls_values ~gen:(ls_gen ~napps:64)
      ~policies:comparison ()
  in
  [ Report.normalize_by fig apc_name ]

let fig17 ?config () =
  repartition_figures ?config ~id:"fig17" ~dataset:Model.Workload.Random ()

let fig18 ?config () =
  let fig =
    Runner.sweep ?config ~id:"fig18"
      ~title:"Impact of cache miss rate with all co-scheduling policies, \
              1 GB LLC (normalized by DominantMinRatio)"
      ~xlabel:"miss rate" ~values:miss_values ~gen:(miss_gen ~napps:16)
      ~policies:(dom @ Sched.Heuristics.[ RandomPart; Fair; ZeroCache ])
      ()
  in
  [ Report.normalize_by fig dmr_name ]

let table2 ?(config = Runner.default_config) () =
  let rng = Util.Rng.create config.Runner.seed in
  let rows =
    List.mapi
      (fun i ((spec : Cachesim.Kernels.spec), (cal : Cachesim.Miss_curve.calibration)) ->
        let paper = List.nth Model.Npb.all i in
        ( float_of_int i,
          [
            spec.work;
            1. /. spec.ops_per_access;
            paper.Model.Npb.m_40mb;
            cal.fit.Util.Regress.m0;
            cal.fit.Util.Regress.alpha;
            cal.fit.Util.Regress.r2;
          ] ))
      (Cachesim.Kernels.table2_analogue ~rng ())
  in
  [
    Report.make ~id:"table2"
      ~title:"Table 2 analogue (rows 0..5 = CG BT LU SP MG FT): paper's \
              measured w, f, m_40MB next to the cache-simulator calibration"
      ~xlabel:"kernel#"
      ~columns:[ "w"; "f"; "m40MB(paper)"; "m0(fit)"; "alpha(fit)"; "R2" ]
      ~rows;
  ]

(* --- Ablations ------------------------------------------------------- *)

let optgap ?(config = Runner.default_config) () =
  let platform = Model.Platform.paper_default in
  let sizes = [ 2.; 3.; 4.; 5.; 6.; 8.; 10. ] in
  let policies =
    Sched.Heuristics.
      [
        dominant_min_ratio;
        DominantPartition (DominantRev, MaxRatio);
        RandomPart;
        Fair;
      ]
  in
  let rows =
    List.map
      (fun size ->
        let n = int_of_float size in
        let work rng =
          let apps =
            Model.Workload.generate ~fixed_s:0. ~rng Model.Workload.NpbSynth n
          in
          let exact = (Theory.Exact.optimal ~platform ~apps ()).Theory.Exact.makespan in
          Array.of_list
            (List.map
               (fun policy ->
                 Sched.Heuristics.makespan ~rng ~platform ~apps policy /. exact)
               policies)
        in
        let outcome =
          Runner.run_trials ~config ~tag:(Printf.sprintf "optgap/n=%d" n) ~work ()
        in
        let accs = online_fold ~ncols:(List.length policies) outcome in
        (size, Array.to_list (Array.map mean_or_nan accs)))
      sizes
  in
  [
    Report.make ~id:"optgap"
      ~title:"Mean makespan ratio to the exact 2^n optimum (perfectly \
              parallel NPB-SYNTH)"
      ~xlabel:"#apps"
      ~columns:(List.map Sched.Heuristics.name policies)
      ~rows;
  ]

let gap ?(config = Runner.default_config) () =
  (* Certified optimality gaps (ROADMAP item 5): every heuristic ratio is
     measured against the Theory.Bnb *certified* optimum, so the table
     extends the 2^n optgap sweep from n <= 10 to n = 36.  Work sizes are
     redrawn from the PR-8 lib/stats families (exponential vs heavy-tailed
     Pareto) on top of the NPB-SYNTH cache parameters; s = 0 keeps the
     instances inside the perfectly-parallel model that Exact/Bnb
     optimise.  Ratio columns accumulate only certified trials — a
     budget-exhausted incumbent is an upper bound, not an optimum — and
     the last column reports how often the default budget certified. *)
  let platform = Model.Platform.paper_default in
  let sizes = [ 4.; 8.; 12.; 16.; 20.; 24.; 28.; 32.; 36. ] in
  let policies = Sched.Certify.default_policies in
  let nb = List.length policies in
  let budget = { Theory.Bnb.max_nodes = 200_000; max_seconds = 2. } in
  let family ~id ~title dist =
    let rows =
      List.map
        (fun size ->
          let n = int_of_float size in
          let work rng =
            let apps =
              Array.map
                (fun (a : Model.App.t) ->
                  Model.App.with_w a
                    (Float.max 1e6 (1e9 *. Stats.Dist.sample dist rng)))
                (Model.Workload.generate ~fixed_s:0. ~rng
                   Model.Workload.NpbSynth n)
            in
            let result, gaps =
              Sched.Certify.gaps ~budget ~rng ~platform ~apps ()
            in
            let cert =
              match result.Theory.Bnb.verdict with
              | Theory.Bnb.Certified -> 1.
              | Theory.Bnb.Budget_exhausted -> 0.
            in
            let ratios =
              List.map (fun (g : Sched.Certify.gap) -> g.Sched.Certify.ratio) gaps
            in
            let dmr_exact =
              match ratios with
              | r :: _ when r <= 1. +. 1e-9 -> 1.
              | _ -> 0.
            in
            Array.of_list (cert :: dmr_exact :: ratios)
          in
          let outcome =
            Runner.run_trials ~config
              ~tag:(Printf.sprintf "%s/n=%d" id n)
              ~work ()
          in
          let cert = Util.Stats.Online.create () in
          let exact_opt = Util.Stats.Online.create () in
          let accs = Array.init nb (fun _ -> Util.Stats.Online.create ()) in
          Array.iter
            (fun row ->
              Util.Stats.Online.add cert row.(0);
              if row.(0) = 1. then begin
                Util.Stats.Online.add exact_opt row.(1);
                for j = 0 to nb - 1 do
                  Util.Stats.Online.add accs.(j) row.(j + 2)
                done
              end)
            (Campaign.ok_results outcome);
          ( size,
            List.concat_map
              (fun acc -> [ mean_or_nan acc; max_or_nan acc ])
              (Array.to_list accs)
            @ [ 100. *. mean_or_nan exact_opt; 100. *. mean_or_nan cert ] ))
        sizes
    in
    Report.make ~id ~title ~xlabel:"#apps"
      ~columns:
        (List.concat_map
           (fun p ->
             let n = Sched.Heuristics.name p in
             [ n ^ ":mean"; n ^ ":max" ])
           policies
        @ [ "% DMR optimal"; "% certified" ])
      ~rows
  in
  [
    family ~id:"gap-exp"
      ~title:"Certified optimality gaps, exponential work sizes (rate 1): \
              heuristic/optimum ratio over certified instances"
      (Stats.Dist.Exponential { rate = 1. });
    family ~id:"gap-pareto"
      ~title:"Certified optimality gaps, Pareto work sizes (alpha 1.5, xm \
              0.2): heuristic/optimum ratio over certified instances"
      (Stats.Dist.Pareto { alpha = 1.5; xm = 0.2 });
  ]

let alpha_sens ?config () =
  let alphas = [ 0.3; 0.4; 0.5; 0.6; 0.7 ] in
  let gen_alpha a rng =
    let platform = Model.Platform.with_alpha Model.Platform.paper_default a in
    gen ~dataset:Model.Workload.NpbSynth ~platform 16 rng
  in
  let fig =
    Runner.sweep ?config ~id:"alpha"
      ~title:"Sensitivity to the power-law exponent alpha, 16 apps \
              (normalized by DominantMinRatio)"
      ~xlabel:"alpha" ~values:alphas ~gen:gen_alpha ~policies:comparison ()
  in
  [ Report.normalize_by fig dmr_name ]

let validation ?(config = Runner.default_config) () =
  let platform = Model.Platform.paper_default in
  let sizes = [ 2.; 4.; 8.; 16.; 32.; 64. ] in
  let rows =
    List.map
      (fun size ->
        let n = int_of_float size in
        let work rng =
          let apps = Model.Workload.generate ~rng Model.Workload.NpbSynth n in
          let err_flag, err_v =
            match
              (Sched.Heuristics.run ~rng ~platform ~apps
                 Sched.Heuristics.dominant_min_ratio)
                .schedule
            with
            | Some s -> (1., Simulator.Coschedule_sim.model_error s)
            | None -> (0., 0.)
          in
          let gain_flag, gain_v =
            match
              (Sched.Heuristics.run ~rng ~platform ~apps Sched.Heuristics.Fair)
                .schedule
            with
            | Some s ->
              let analytic = Model.Schedule.makespan s in
              let opts =
                {
                  Simulator.Coschedule_sim.default_options with
                  redistribute_procs = true;
                  redistribute_cache = true;
                }
              in
              let sim = (Simulator.Coschedule_sim.run ~options:opts s).makespan in
              (1., sim /. analytic)
            | None -> (0., 0.)
          in
          [| err_flag; err_v; gain_flag; gain_v |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "validation/n=%d" n)
            ~work ()
        in
        let err = Util.Stats.Online.create () in
        let gain = Util.Stats.Online.create () in
        Array.iter
          (fun row ->
            if row.(0) = 1. then Util.Stats.Online.add err row.(1);
            if row.(2) = 1. then Util.Stats.Online.add gain row.(3))
          (Campaign.ok_results outcome);
        ( size,
          [ max_or_nan err; mean_or_nan gain ] ))
      sizes
  in
  [
    Report.make ~id:"validation"
      ~title:"Discrete-event simulation: max relative model error \
              (DominantMinRatio schedules) and work-conserving \
              redistribution gain on Fair (simulated/analytic makespan)"
      ~xlabel:"#apps"
      ~columns:[ "max model error"; "Fair redistribution ratio" ]
      ~rows;
  ]

let rounding ?(config = Runner.default_config) () =
  let platform = Model.Platform.paper_default in
  let sizes = [ 2.; 4.; 8.; 16.; 32.; 64.; 128. ] in
  let rows =
    List.map
      (fun size ->
        let n = int_of_float size in
        let work rng =
          let apps = Model.Workload.generate ~rng Model.Workload.NpbSynth n in
          match
            (Sched.Heuristics.run ~rng ~platform ~apps
               Sched.Heuristics.dominant_min_ratio)
              .schedule
          with
          | Some s ->
            let rounded = Sched.Rounding.integerize s in
            [| 1.; Model.Schedule.makespan rounded /. Model.Schedule.makespan s |]
          | None -> [| 0.; 0. |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "rounding/n=%d" n)
            ~work ()
        in
        let acc = Util.Stats.Online.create () in
        Array.iter
          (fun row -> if row.(0) = 1. then Util.Stats.Online.add acc row.(1))
          (Campaign.ok_results outcome);
        (size, [ mean_or_nan acc; max_or_nan acc ]))
      sizes
  in
  [
    Report.make ~id:"rounding"
      ~title:"Cost of integral processor counts: largest-remainder rounding \
              of DominantMinRatio vs the rational schedule"
      ~xlabel:"#apps" ~columns:[ "mean ratio"; "max ratio" ] ~rows;
  ]

let speedup ?(config = Runner.default_config) () =
  (* Future-work extension: speedup-aware cache refinement vs the
     perfectly-parallel closed form, under cache pressure (1 GB LLC). *)
  let platform = Model.Platform.small_llc in
  let cases =
    [ (0.0, 0.3); (0.05, 0.3); (0.1, 0.3); (0.1, 0.6); (0.15, 0.6); (0.15, 0.9) ]
  in
  let rows =
    List.mapi
      (fun idx (s, m) ->
        let work rng =
          let apps =
            Model.Workload.generate ~fixed_s:s ~fixed_m0:m ~rng
              Model.Workload.NpbSynth 16
          in
          let r =
            Sched.Heuristics.run ~rng ~platform ~apps
              Sched.Heuristics.dominant_min_ratio
          in
          match r.Sched.Heuristics.cached with
          | None -> [| 0.; 0. |]
          | Some subset ->
            let x0 = Theory.Dominant.cache_allocation ~platform ~apps subset in
            let refined = Sched.Refine.refine ~platform ~apps ~x0 () in
            [| 1.; refined.Sched.Refine.improvement |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "speedup/s=%g/m=%g" s m)
            ~work ()
        in
        let impr = Util.Stats.Online.create () in
        Array.iter
          (fun row -> if row.(0) = 1. then Util.Stats.Online.add impr row.(1))
          (Campaign.ok_results outcome);
        ( float_of_int idx,
          [
            s;
            m;
            100. *. mean_or_nan impr;
            100. *. max_or_nan impr;
          ] ))
      cases
  in
  [
    Report.make ~id:"speedup"
      ~title:"Speedup-aware cache refinement (future work of the paper): \
              makespan improvement over the Theorem 3 allocation, 16 apps, \
              1 GB LLC"
      ~xlabel:"case#"
      ~columns:[ "seq fraction"; "miss rate"; "mean gain %"; "max gain %" ]
      ~rows;
  ]

let integer ?(config = Runner.default_config) () =
  (* Ablation: exact greedy integral allocation vs largest-remainder
     rounding vs the rational bound, all on DominantMinRatio's cache
     split. *)
  let platform = Model.Platform.paper_default in
  let sizes = [ 2.; 4.; 8.; 16.; 32.; 64.; 128. ] in
  let rows =
    List.map
      (fun size ->
        let n = int_of_float size in
        let work rng =
          let apps = Model.Workload.generate ~rng Model.Workload.NpbSynth n in
          match
            (Sched.Heuristics.run ~rng ~platform ~apps
               Sched.Heuristics.dominant_min_ratio)
              .Sched.Heuristics.schedule
          with
          | None -> [| 0.; 0.; 0. |]
          | Some s ->
            let rational = Model.Schedule.makespan s in
            let x = Array.map (fun a -> a.Model.Schedule.cache) s.Model.Schedule.allocs in
            [|
              1.;
              Model.Schedule.makespan (Sched.Rounding.integerize s) /. rational;
              Sched.Integer_alloc.makespan ~platform ~apps ~x /. rational;
            |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "integer/n=%d" n)
            ~work ()
        in
        let rounded = Util.Stats.Online.create () in
        let exact_int = Util.Stats.Online.create () in
        Array.iter
          (fun row ->
            if row.(0) = 1. then begin
              Util.Stats.Online.add rounded row.(1);
              Util.Stats.Online.add exact_int row.(2)
            end)
          (Campaign.ok_results outcome);
        ( size,
          [ mean_or_nan exact_int; mean_or_nan rounded ] ))
      sizes
  in
  [
    Report.make ~id:"integer"
      ~title:"Integral processors: exact greedy water-filling vs \
              largest-remainder rounding (ratio to the rational bound)"
      ~xlabel:"#apps"
      ~columns:[ "greedy integral"; "largest remainder" ]
      ~rows;
  ]

let ucp ?(config = Runner.default_config) () =
  (* Ablation: Qureshi-Patt utility-based partitioning (total-miss
     objective) vs the paper's Theorem 3 allocation (makespan objective)
     vs an equal split, all executed on the way-partitioned cache
     simulator.  The makespan column evaluates the paper's model with the
     *measured* per-tenant miss rates. *)
  let sets = 64 and ways = 16 in
  let s = 0.02 and p = 32. in
  let platform = Model.Platform.make ~p ~cs:(float_of_int (sets * ways * 64)) () in
  let rng = Util.Rng.create config.Runner.seed in
  let kernels = [ "CG"; "BT"; "MG"; "FT" ] in
  let traces =
    Array.of_list
      (List.map
         (fun name -> Cachesim.Kernels.trace ~rng ~scale:512 ~length:60_000 name)
         kernels)
  in
  let specs = List.map Cachesim.Kernels.spec kernels in
  let curves =
    Array.map
      (fun trace ->
        Cachesim.Ucp.utility_curve (Cachesim.Mattson.analyze trace) ~sets ~ways)
      traces
  in
  let n = Array.length traces in
  (* Scheme allocations (way counts per tenant). *)
  let ucp_alloc = Cachesim.Ucp.lookahead ~curves ~ways in
  let model_alloc =
    (* Theorem 3 on the calibrated applications, floored to ways. *)
    let apps =
      Array.of_list
        (List.map2
           (fun (spec : Cachesim.Kernels.spec) trace ->
             let capacities =
               Cachesim.Miss_curve.log_spaced ~min:8 ~max:(sets * ways) ~points:10
             in
             let cal = Cachesim.Miss_curve.calibrate trace ~capacities in
             Cachesim.Miss_curve.to_app ~name:spec.name ~s
               ~w:spec.Cachesim.Kernels.work
               ~f:(1. /. spec.Cachesim.Kernels.ops_per_access)
               cal)
           specs (Array.to_list traces))
    in
    let subset = Array.make n true in
    let x = Theory.Dominant.cache_allocation ~platform ~apps subset in
    Array.map (fun xi -> int_of_float (floor (xi *. float_of_int ways))) x
  in
  let equal_alloc = Array.make n (ways / n) in
  let evaluate alloc =
    let shared = Cachesim.Partition.create ~sets ~ways ~tenants:n in
    Array.iteri
      (fun tenant way_count -> Cachesim.Partition.assign shared ~tenant ~way_count)
      alloc;
    Cachesim.Partition.run_interleaved shared
      (Array.mapi (fun i trace -> (i, trace)) traces)
      ~schedule:`Round_robin;
    let rates =
      Array.init n (fun i -> Cachesim.Partition.tenant_miss_rate shared i)
    in
    let total_misses =
      Array.init n (fun i -> Cachesim.Partition.tenant_misses shared i)
      |> Array.fold_left ( + ) 0
    in
    (* The paper's model evaluated at the measured rates: equalize
       completion times over the p processors. *)
    let costs =
      Array.of_list
        (List.mapi
           (fun i (spec : Cachesim.Kernels.spec) ->
             spec.work
             *. (1.
                +. (1. /. spec.ops_per_access
                   *. (platform.Model.Platform.ls
                      +. (platform.Model.Platform.ll *. rates.(i))))))
           specs)
    in
    let procs_needed k =
      Array.fold_left (fun acc c -> acc +. ((1. -. s) /. ((k /. c) -. s))) 0. costs
    in
    let k_lo =
      Array.fold_left Float.max 0.
        (Array.map (fun c -> (s +. ((1. -. s) /. p)) *. c) costs)
    in
    let makespan =
      if procs_needed k_lo <= p then k_lo
      else
        let hi =
          Util.Solver.expand_bracket_up
            ~f:(fun k -> procs_needed k -. p)
            (Array.fold_left Float.max k_lo costs)
        in
        Util.Solver.bisect ~f:(fun k -> procs_needed k -. p) k_lo hi
    in
    let worst_rate = Array.fold_left Float.max 0. rates in
    (float_of_int total_misses, worst_rate, makespan)
  in
  let rows =
    List.mapi
      (fun idx (_, alloc) ->
        let misses, worst, makespan = evaluate alloc in
        (float_of_int idx, [ misses; worst; makespan ]))
      [ ("UCP", ucp_alloc); ("Theorem3", model_alloc); ("Equal", equal_alloc) ]
  in
  [
    Report.make ~id:"ucp"
      ~title:"Way partitioning: UCP lookahead (row 0) vs the paper's \
              Theorem 3 allocation (row 1) vs equal split (row 2), four \
              NPB-like tenants on a 64x16 cache"
      ~xlabel:"scheme#"
      ~columns:[ "total misses"; "worst tenant rate"; "model makespan" ]
      ~rows;
  ]

let profiles ?(config = Runner.default_config) () =
  (* Future-work extension: the generalised equaliser across speedup
     profiles.  Same 16-app NPB-SYNTH instances, same DominantMinRatio
     cache split; only the speedup profile changes. *)
  let platform = Model.Platform.paper_default in
  let cases =
    [
      ("Amdahl (paper)", fun (base : Model.App.t) -> Model.Speedup.Amdahl base.s);
      ("Power 0.9", fun _ -> Model.Speedup.Power 0.9);
      ("Power 0.7", fun _ -> Model.Speedup.Power 0.7);
      ( "Comm 1e-3",
        fun (base : Model.App.t) ->
          Model.Speedup.Comm { s = base.s; overhead = 1e-3 } );
      ( "Comm 1e-2",
        fun (base : Model.App.t) ->
          Model.Speedup.Comm { s = base.s; overhead = 1e-2 } );
    ]
  in
  let rows =
    List.mapi
      (fun idx (case_name, profile_of) ->
        let work rng =
          let bases = Model.Workload.generate ~rng Model.Workload.NpbSynth 16 in
          let apps =
            Array.map
              (fun base -> { Sched.General.base; profile = profile_of base })
              bases
          in
          let r = Sched.General.solve_with_dominant ~rng ~platform ~apps in
          [| r.Sched.General.makespan; r.Sched.General.idle |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "profiles/%s" case_name)
            ~work ()
        in
        let accs = online_fold ~ncols:2 outcome in
        ( float_of_int idx,
          [ mean_or_nan accs.(0); mean_or_nan accs.(1) ] ))
      cases
  in
  [
    Report.make ~id:"profiles"
      ~title:"Generalised speedup profiles (rows: Amdahl, Power 0.9, Power \
              0.7, Comm 1e-3, Comm 1e-2), 16 apps, DominantMinRatio cache \
              split"
      ~xlabel:"profile#"
      ~columns:[ "mean makespan"; "mean idle processors" ]
      ~rows;
  ]

let tracedriven ?(config = Runner.default_config) () =
  (* End-to-end power-law fidelity: replay each kernel's actual trace
     through its partition slice and compare the measured execution time
     with the Eq. 2 prediction. *)
  let sets = 64 and ways = 16 and block_size = 64 in
  let cs = float_of_int (sets * ways * block_size) in
  let platform = Model.Platform.make ~p:32. ~cs () in
  let rng = Util.Rng.create config.Runner.seed in
  let kernels = [ "CG"; "BT"; "LU"; "SP"; "MG"; "FT" ] in
  let tenants =
    Array.of_list
      (List.map
         (fun name ->
           let spec = Cachesim.Kernels.spec name in
           let trace = Cachesim.Kernels.trace ~rng ~scale:256 ~length:60_000 name in
           let capacities =
             Cachesim.Miss_curve.log_spaced ~min:8 ~max:(sets * ways) ~points:10
           in
           let cal = Cachesim.Miss_curve.calibrate trace ~capacities in
           let app =
             Cachesim.Miss_curve.to_app ~name ~s:0.02 ~block_size
               ~w:spec.Cachesim.Kernels.work
               ~f:(1. /. spec.Cachesim.Kernels.ops_per_access)
               cal
           in
           {
             Simulator.Trace_driven.app;
             trace;
             procs = 32. /. 6.;
             way_count = 2;
           })
         kernels)
  in
  let o = Simulator.Trace_driven.run ~block_size ~platform ~sets ~ways tenants in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (t : Simulator.Trace_driven.tenant_outcome) ->
           ( float_of_int i,
             [
               t.measured_miss_rate;
               t.measured_time;
               t.model_time;
               100. *. t.relative_error;
             ] ))
         o.Simulator.Trace_driven.tenants)
  in
  [
    Report.make ~id:"tracedriven"
      ~title:"Trace-driven replay vs the Eq. 2 power-law prediction (rows \
              0..5 = CG BT LU SP MG FT, 2 ways each of a 64x16 cache)"
      ~xlabel:"kernel#"
      ~columns:[ "measured miss"; "measured time"; "model time"; "error %" ]
      ~rows;
  ]

let footprint ?(config = Runner.default_config) () =
  (* Finite footprints (Eq. 2's second case, assumed away in Section 4.2):
     water-filling vs naively clamping the Theorem 3 shares.  Footprints
     drawn log-uniformly around the fair share make some caps bind; the
     1 GB LLC with a high baseline miss rate puts real weight on the
     cache terms (on the 32 GB node the effect exists but is epsilon). *)
  let platform = Model.Platform.small_llc in
  let sizes = [ 4.; 8.; 16.; 32.; 64. ] in
  let rows =
    List.map
      (fun size ->
        let n = int_of_float size in
        let work rng =
          let apps =
            Array.map
              (fun (app : Model.App.t) ->
                let cap =
                  Util.Rng.log_uniform rng
                    (0.1 /. float_of_int n)
                    (4. /. float_of_int n)
                in
                Model.App.make ~name:app.name ~s:0.
                  ~footprint:(cap *. platform.Model.Platform.cs)
                  ~c0:app.c0 ~w:app.w ~f:app.f ~m0:app.m0 ())
              (Model.Workload.generate ~fixed_s:0. ~fixed_m0:0.3 ~rng
                 Model.Workload.NpbSynth n)
          in
          let subset = Array.make n true in
          let capped =
            Theory.Dominant.cache_allocation_capped ~platform ~apps subset
          in
          let naive =
            Array.map2
              (fun app xi ->
                Float.min xi
                  (Model.Power_law.max_useful_fraction ~app ~platform))
              apps
              (Theory.Dominant.cache_allocation ~platform ~apps subset)
          in
          let value x = Theory.Perfect.makespan ~platform ~apps ~x in
          let binding =
            Array.fold_left ( + ) 0
              (Array.map2
                 (fun app xi ->
                   if
                     xi
                     >= Model.Power_law.max_useful_fraction ~app ~platform
                        -. 1e-12
                   then 1
                   else 0)
                 apps capped)
          in
          [|
            value naive /. value capped;
            float_of_int binding /. float_of_int n;
          |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "footprint/n=%d" n)
            ~work ()
        in
        let accs = online_fold ~ncols:2 outcome in
        ( size,
          [ mean_or_nan accs.(0); mean_or_nan accs.(1) ] ))
      sizes
  in
  [
    Report.make ~id:"footprint"
      ~title:"Finite footprints: naive clamping of Theorem 3 vs KKT \
              water-filling (makespan ratio; fraction of caps binding)"
      ~xlabel:"#apps"
      ~columns:[ "naive/water-filling"; "binding caps" ]
      ~rows;
  ]

let heavytail ?(config = Runner.default_config) () =
  (* Heavy-tailed job sizes under the online co-scheduler: sweep the
     Pareto tail index of the size distribution at a fixed Poisson load.
     As alpha drops toward 1 a few giant jobs dominate the offered work
     — mean stretch and the response tail blow up while utilization
     stays high, the signature that motivates the flash-crowd and
     shedding machinery in lib/serve. *)
  let platform = Model.Platform.paper_default in
  let alphas = [ 1.1; 1.3; 1.5; 2.0; 3.0 ] in
  let scenario =
    Stats.Scenario.Renewal (Stats.Dist.Exponential { rate = 4. })
  in
  let rows =
    List.map
      (fun alpha ->
        let work rng =
          let stream =
            Online.Workload_stream.scenario_load ~rng ~platform
              ~sizes:(Stats.Dist.Pareto { alpha; xm = 1e9 })
              ~scenario ~dataset:Model.Workload.NpbSynth 24
          in
          let m = Online.Service.run ~platform stream in
          [|
            m.Online.Metrics.mean_response; m.Online.Metrics.max_response;
            m.Online.Metrics.mean_stretch; m.Online.Metrics.utilization;
          |]
        in
        let outcome =
          Runner.run_trials ~config
            ~tag:(Printf.sprintf "heavytail/alpha=%g" alpha)
            ~work ()
        in
        let accs = online_fold ~ncols:4 outcome in
        ( alpha,
          [
            mean_or_nan accs.(0); max_or_nan accs.(1); mean_or_nan accs.(2);
            mean_or_nan accs.(3);
          ] ))
      alphas
  in
  [
    Report.make ~id:"heavytail"
      ~title:"Heavy-tailed job sizes online: Pareto(alpha, xm=1e9) work at \
              Poisson load 4, 24 apps, every-event policy"
      ~xlabel:"tail index alpha"
      ~columns:
        [ "mean response"; "max response"; "mean stretch"; "utilization" ]
      ~rows;
  ]

let catalogue =
  [
    ("table2", table2);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18);
    ("optgap", optgap);
    ("gap", gap);
    ("alpha", alpha_sens);
    ("validation", validation);
    ("rounding", rounding);
    ("integer", integer);
    ("speedup", speedup);
    ("ucp", ucp);
    ("profiles", profiles);
    ("tracedriven", tracedriven);
    ("footprint", footprint);
    ("heavytail", heavytail);
  ]

let all_ids = List.map fst catalogue

let run ?config id =
  match List.assoc_opt (String.lowercase_ascii id) catalogue with
  | Some f -> f ?config ()
  | None -> invalid_arg ("Figures.run: unknown experiment id " ^ id)
