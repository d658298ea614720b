(* Tests for the sched library: Choice, Partition_builder, Equalize,
   Heuristics, Rounding. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b
let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

let npb6 ~seed = Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.Npb6 6

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let instance_gen =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "(seed %d, n %d)" seed n)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 1 40))

(* --- Choice ------------------------------------------------------------- *)

let choice_names () =
  Alcotest.(check string) "Random" "Random" (Sched.Choice.name Sched.Choice.Random);
  Alcotest.(check string) "MinRatio" "MinRatio" (Sched.Choice.name Sched.Choice.MinRatio);
  Alcotest.(check string) "MaxRatio" "MaxRatio" (Sched.Choice.name Sched.Choice.MaxRatio);
  Alcotest.(check int) "three criteria" 3 (List.length Sched.Choice.all)

let choice_of_string () =
  Alcotest.(check bool) "minratio" true
    (Sched.Choice.of_string "minratio" = Sched.Choice.MinRatio);
  Alcotest.(check bool) "max-ratio" true
    (Sched.Choice.of_string "Max-Ratio" = Sched.Choice.MaxRatio);
  Alcotest.(check bool) "unknown" true
    (try
       ignore (Sched.Choice.of_string "best");
       false
     with Invalid_argument _ -> true)

let choice_min_max_are_extremes () =
  let apps = synth ~seed:1 10 in
  let rng = Util.Rng.create 2 in
  let candidates = List.init 10 (fun i -> i) in
  let kmin = Oracle.Partition_reference.pick Sched.Choice.MinRatio ~rng ~platform ~apps candidates in
  let kmax = Oracle.Partition_reference.pick Sched.Choice.MaxRatio ~rng ~platform ~apps candidates in
  let ratio i = Theory.Dominant.ratio ~platform apps.(i) in
  List.iter
    (fun i ->
      Alcotest.(check bool) "min is minimal" true (ratio kmin <= ratio i);
      Alcotest.(check bool) "max is maximal" true (ratio kmax >= ratio i))
    candidates

let choice_respects_candidates () =
  let apps = synth ~seed:3 10 in
  let rng = Util.Rng.create 4 in
  let candidates = [ 2; 5; 7 ] in
  List.iter
    (fun criterion ->
      for _ = 1 to 20 do
        let k = Oracle.Partition_reference.pick criterion ~rng ~platform ~apps candidates in
        Alcotest.(check bool) "chosen from candidates" true (List.mem k candidates)
      done)
    Sched.Choice.all

let choice_empty_rejected () =
  let apps = synth ~seed:5 3 in
  let rng = Util.Rng.create 6 in
  Alcotest.(check bool) "empty" true
    (try
       ignore (Oracle.Partition_reference.pick Sched.Choice.MinRatio ~rng ~platform ~apps []);
       false
     with Invalid_argument _ -> true)

let choice_deterministic_tiebreak () =
  (* Identical applications: MinRatio must pick the lowest index. *)
  let app = Model.App.make ~w:1e10 ~f:0.5 ~m0:0.01 () in
  let apps = Array.make 4 app in
  let rng = Util.Rng.create 7 in
  Alcotest.(check int) "lowest index" 0
    (Oracle.Partition_reference.pick Sched.Choice.MinRatio ~rng ~platform ~apps [ 0; 1; 2; 3 ])

(* --- Partition_builder ---------------------------------------------------- *)

let builder_strategies () =
  Alcotest.(check string) "Dominant" "Dominant"
    (Sched.Partition_builder.strategy_name Sched.Partition_builder.Dominant);
  Alcotest.(check string) "DominantRev" "DominantRev"
    (Sched.Partition_builder.strategy_name Sched.Partition_builder.DominantRev);
  Alcotest.(check bool) "of_string" true
    (Sched.Partition_builder.strategy_of_string "dominant-rev"
    = Sched.Partition_builder.DominantRev)

let builder_always_dominant () =
  (* Algorithms 1 and 2 must both end on a dominant partition, on easy and
     hard (tiny-cache) platforms alike. *)
  let tiny = Model.Platform.make ~p:256. ~cs:1e5 () in
  List.iter
    (fun platform ->
      List.iter
        (fun strategy ->
          List.iter
            (fun choice ->
              let rng = Util.Rng.create 11 in
              let apps = synth ~seed:12 16 in
              let subset =
                Sched.Partition_builder.build strategy choice ~rng ~platform ~apps
              in
              Alcotest.(check bool) "dominant" true
                (Theory.Dominant.is_dominant ~platform ~apps subset))
            Sched.Choice.all)
        Sched.Partition_builder.[ Dominant; DominantRev ])
    [ platform; tiny ]

let builder_full_set_when_easy () =
  (* On the paper platform the full NPB-SYNTH set is dominant, so
     Algorithm 1 should keep everyone. *)
  let rng = Util.Rng.create 13 in
  let apps = synth ~seed:14 16 in
  let subset =
    Sched.Partition_builder.build Sched.Partition_builder.Dominant
      Sched.Choice.MinRatio ~rng ~platform ~apps
  in
  Alcotest.(check int) "all cached" 16 (Theory.Dominant.cardinal subset)

let builder_rev_grows_from_empty () =
  let rng = Util.Rng.create 15 in
  let apps = synth ~seed:16 16 in
  let subset =
    Sched.Partition_builder.build Sched.Partition_builder.DominantRev
      Sched.Choice.MaxRatio ~rng ~platform ~apps
  in
  Alcotest.(check bool) "nonempty on easy platform" true
    (Theory.Dominant.cardinal subset > 0)

let builder_single_app () =
  let rng = Util.Rng.create 17 in
  let apps = synth ~seed:18 1 in
  List.iter
    (fun strategy ->
      let subset =
        Sched.Partition_builder.build strategy Sched.Choice.MinRatio ~rng
          ~platform ~apps
      in
      Alcotest.(check bool) "dominant" true
        (Theory.Dominant.is_dominant ~platform ~apps subset))
    Sched.Partition_builder.[ Dominant; DominantRev ]

let qcheck_builder_dominant =
  QCheck.Test.make ~name:"builders always return dominant partitions" ~count:80
    instance_gen (fun (seed, n) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 1) in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun choice ->
              let subset =
                Sched.Partition_builder.build strategy choice ~rng ~platform ~apps
              in
              Theory.Dominant.is_dominant ~platform ~apps subset)
            Sched.Choice.all)
        Sched.Partition_builder.[ Dominant; DominantRev ])

(* Half the instances repeat a few applications, so ratio ties are common
   and the lowest-index tie-break is exercised; the other half draw every
   parameter at random. *)
let reference_instance ~seed n =
  let rng = Util.Rng.create seed in
  if seed mod 2 = 0 then Model.Workload.generate ~rng Model.Workload.Random n
  else
    let pool =
      Model.Workload.generate ~rng Model.Workload.NpbSynth (1 + Util.Rng.int rng 6)
    in
    Array.init n (fun _ -> pool.(Util.Rng.int rng (Array.length pool)))

(* The shipped builders read cached weight and ratio columns; the
   list-based reference recomputes both at every step.  On the paper
   platform and on a tiny cache (which forces evictions and rejections)
   they must agree on the subset, on every [ops] call and on the
   randomness consumed (the next draw after the build). *)
let qcheck_builder_matches_reference =
  let tiny = Model.Platform.make ~p:256. ~cs:1e5 () in
  QCheck.Test.make ~name:"builders match the list-based reference" ~count:150
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "(seed %d, n %d)" seed n)
       QCheck.Gen.(pair (int_bound 100_000) (int_range 0 96)))
    (fun (seed, n) ->
      let apps = reference_instance ~seed n in
      let run build strategy choice platform =
        let rng = Util.Rng.create (seed + 1) in
        let ops = ref [] in
        let subset =
          build ~ops:(fun m -> ops := m :: !ops) strategy choice ~rng ~platform
            ~apps
        in
        (subset, !ops, Util.Rng.int rng 1_000_000)
      in
      List.for_all
        (fun platform ->
          List.for_all
            (fun strategy ->
              List.for_all
                (fun choice ->
                  run
                    (fun ~ops -> Sched.Partition_builder.build ~ops)
                    strategy choice platform
                  = run
                      (fun ~ops -> Oracle.Partition_reference.build ~ops)
                      strategy choice platform)
                Sched.Choice.all)
            Sched.Partition_builder.[ Dominant; DominantRev ])
        [ platform; tiny ])

(* --- Equalize ------------------------------------------------------------- *)

let equalize_perfect_parallel_closed_form () =
  (* For s = 0, the binary search must return Lemma 3's closed form. *)
  let apps = Model.Workload.generate ~fixed_s:0. ~rng:(Util.Rng.create 19)
      Model.Workload.NpbSynth 8 in
  let x = Array.make 8 0.125 in
  let k = Sched.Equalize.solve_makespan ~platform ~apps x in
  let lemma3 = Theory.Perfect.makespan ~platform ~apps ~x in
  check_close ~eps:1e-9 "matches Lemma 3" 1. (k /. lemma3)

let equalize_equal_finish () =
  let apps = synth ~seed:20 12 in
  let x = Array.make 12 (1. /. 12.) in
  let s = Sched.Equalize.schedule ~platform ~apps x in
  Alcotest.(check bool) "equal finish" true (Model.Schedule.equal_finish s);
  Alcotest.(check bool) "valid" true (Model.Schedule.is_valid s);
  check_close ~eps:1e-9 "uses all processors" 256. (Model.Schedule.total_procs s)

let equalize_more_apps_than_procs () =
  (* n > p stresses the upper-bound expansion of the bracket. *)
  let small = Model.Platform.make ~p:4. ~cs:32e9 () in
  let apps = synth ~seed:21 16 in
  let x = Array.make 16 (1. /. 16.) in
  let s = Sched.Equalize.schedule ~platform:small ~apps x in
  Alcotest.(check bool) "equal finish" true (Model.Schedule.equal_finish s);
  check_close ~eps:1e-9 "respects p" 4. (Model.Schedule.total_procs s)

let equalize_single_app () =
  let apps = synth ~seed:22 1 in
  let s = Sched.Equalize.schedule ~platform ~apps [| 1. |] in
  check_close ~eps:1e-9 "one app gets all procs" 256.
    s.Model.Schedule.allocs.(0).Model.Schedule.procs

let equalize_makespan_decreasing_in_cache () =
  (* Giving cache (to apps that can use it) cannot increase the equalized
     makespan. *)
  let apps = synth ~seed:23 8 in
  let k0 = Sched.Equalize.solve_makespan ~platform ~apps (Array.make 8 0.) in
  let k1 = Sched.Equalize.solve_makespan ~platform ~apps (Array.make 8 0.125) in
  Alcotest.(check bool) "cache helps" true (k1 <= k0 +. 1e-9)

let equalize_rejects_empty () =
  Alcotest.(check bool) "empty" true
    (try
       ignore (Sched.Equalize.solve_makespan ~platform ~apps:[||] [||]);
       false
     with Invalid_argument _ -> true)

let equalize_work_costs () =
  let apps = synth ~seed:24 4 in
  let x = [| 0.; 0.1; 0.2; 0.3 |] in
  let costs = Sched.Equalize.work_costs ~platform ~apps ~x in
  Array.iteri
    (fun i c ->
      check_close ~eps:1e-12 "matches Exec_model"
        (Model.Exec_model.work_cost ~app:apps.(i) ~platform ~x:x.(i))
        c)
    costs

let qcheck_equalize_valid =
  QCheck.Test.make ~name:"equalized schedules are valid and equal-finish"
    ~count:60 instance_gen (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = Array.make n (1. /. float_of_int n) in
      let s = Sched.Equalize.schedule ~platform ~apps x in
      Model.Schedule.is_valid s && Model.Schedule.equal_finish ~eps:1e-5 s)

(* --- Heuristics ------------------------------------------------------------ *)

let all_policies_named () =
  let names = List.map Sched.Heuristics.name Sched.Heuristics.all in
  Alcotest.(check (list string)) "paper names"
    [
      "DominantRandom"; "DominantMinRatio"; "DominantMaxRatio";
      "DominantRevRandom"; "DominantRevMinRatio"; "DominantRevMaxRatio";
      "AllProcCache"; "Fair"; "0cache"; "RandomPart";
    ]
    names

let of_string_roundtrip () =
  List.iter
    (fun policy ->
      Alcotest.(check bool)
        (Sched.Heuristics.name policy ^ " roundtrips")
        true
        (Sched.Heuristics.of_string (Sched.Heuristics.name policy) = policy))
    Sched.Heuristics.all;
  Alcotest.(check bool) "zerocache alias" true
    (Sched.Heuristics.of_string "zerocache" = Sched.Heuristics.ZeroCache)

let all_schedules_valid () =
  let apps = synth ~seed:30 16 in
  let rng = Util.Rng.create 31 in
  List.iter
    (fun policy ->
      let r = Sched.Heuristics.run ~rng ~platform ~apps policy in
      Alcotest.(check bool)
        (Sched.Heuristics.name policy ^ " positive makespan")
        true
        (r.Sched.Heuristics.makespan > 0.);
      match r.Sched.Heuristics.schedule with
      | None ->
        Alcotest.(check bool) "only AllProcCache lacks a schedule" true
          (policy = Sched.Heuristics.AllProcCache)
      | Some s ->
        Alcotest.(check bool)
          (Sched.Heuristics.name policy ^ " valid")
          true (Model.Schedule.is_valid s))
    Sched.Heuristics.all

let equalized_policies_equal_finish () =
  let apps = synth ~seed:32 10 in
  let rng = Util.Rng.create 33 in
  List.iter
    (fun policy ->
      match (Sched.Heuristics.run ~rng ~platform ~apps policy).schedule with
      | Some s ->
        Alcotest.(check bool)
          (Sched.Heuristics.name policy ^ " equal finish")
          true
          (Model.Schedule.equal_finish ~eps:1e-5 s)
      | None -> ())
    (Sched.Heuristics.dominant_heuristics
    @ Sched.Heuristics.[ ZeroCache; RandomPart ])

let all_proc_cache_is_sum () =
  let apps = npb6 ~seed:34 in
  let direct = Sched.Heuristics.all_proc_cache_makespan ~platform ~apps in
  let by_hand =
    Array.fold_left
      (fun acc app -> acc +. Model.Exec_model.exe ~app ~platform ~p:256. ~x:1.)
      0. apps
  in
  check_close ~eps:1e-9 "sum of solo runs" 1. (direct /. by_hand)

let fair_allocation_shape () =
  let apps = npb6 ~seed:35 in
  let rng = Util.Rng.create 36 in
  let r = Sched.Heuristics.run ~rng ~platform ~apps Sched.Heuristics.Fair in
  match r.Sched.Heuristics.schedule with
  | None -> Alcotest.fail "Fair has a schedule"
  | Some s ->
    let total_f = Array.fold_left (fun acc a -> acc +. a.Model.App.f) 0. apps in
    Array.iteri
      (fun i { Model.Schedule.procs; cache } ->
        check_close ~eps:1e-9 "p/n each" (256. /. 6.) procs;
        check_close ~eps:1e-9 "f-proportional cache"
          (apps.(i).Model.App.f /. total_f)
          cache)
      s.Model.Schedule.allocs

let zero_cache_gives_no_cache () =
  let apps = synth ~seed:37 8 in
  let rng = Util.Rng.create 38 in
  let r = Sched.Heuristics.run ~rng ~platform ~apps Sched.Heuristics.ZeroCache in
  match r.Sched.Heuristics.schedule with
  | None -> Alcotest.fail "0cache has a schedule"
  | Some s ->
    Array.iter
      (fun { Model.Schedule.cache; _ } -> check_float "x = 0" 0. cache)
      s.Model.Schedule.allocs

let dominant_beats_baselines_generally () =
  (* The paper's headline: DominantMinRatio outperforms Fair/0cache/
     AllProcCache on NPB-SYNTH at n = 16, p = 256. *)
  let apps = synth ~seed:39 16 in
  let rng = Util.Rng.create 40 in
  let m policy = Sched.Heuristics.makespan ~rng ~platform ~apps policy in
  let best = m Sched.Heuristics.dominant_min_ratio in
  Alcotest.(check bool) "beats Fair" true (best <= m Sched.Heuristics.Fair);
  Alcotest.(check bool) "beats 0cache" true (best <= m Sched.Heuristics.ZeroCache);
  Alcotest.(check bool) "beats AllProcCache" true
    (best <= m Sched.Heuristics.AllProcCache)

let dominant_beats_zero_cache_always () =
  (* DominantMinRatio's partition includes the empty set as a candidate,
     so it can never lose to 0cache (same equalization, more cache). *)
  let rng = Util.Rng.create 41 in
  for seed = 0 to 20 do
    let apps = synth ~seed (4 + (seed mod 20)) in
    let d =
      Sched.Heuristics.makespan ~rng ~platform ~apps
        Sched.Heuristics.dominant_min_ratio
    in
    let z = Sched.Heuristics.makespan ~rng ~platform ~apps Sched.Heuristics.ZeroCache in
    Alcotest.(check bool) "d <= z" true (d <= z *. (1. +. 1e-9))
  done

let random_variants_consume_rng () =
  (* Two different rngs may give different RandomPart partitions; the same
     rng state must give identical results. *)
  let apps = synth ~seed:42 12 in
  let m seed =
    Sched.Heuristics.makespan ~rng:(Util.Rng.create seed) ~platform ~apps
      Sched.Heuristics.RandomPart
  in
  check_float "deterministic per seed" (m 1) (m 1)

let cached_subset_reported () =
  let apps = synth ~seed:43 8 in
  let rng = Util.Rng.create 44 in
  let r =
    Sched.Heuristics.run ~rng ~platform ~apps Sched.Heuristics.dominant_min_ratio
  in
  match (r.Sched.Heuristics.cached, r.Sched.Heuristics.schedule) with
  | Some subset, Some s ->
    (* Cache fractions positive exactly on the subset. *)
    Array.iteri
      (fun i { Model.Schedule.cache; _ } ->
        Alcotest.(check bool) "support matches subset" true
          (subset.(i) = (cache > 0.)))
      s.Model.Schedule.allocs
  | _ -> Alcotest.fail "expected subset and schedule"

let empty_instance_rejected () =
  let rng = Util.Rng.create 45 in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Sched.Heuristics.run ~rng ~platform ~apps:[||]
            Sched.Heuristics.dominant_min_ratio);
       false
     with Invalid_argument _ -> true)

let qcheck_dominant_valid_everywhere =
  QCheck.Test.make ~name:"DominantMinRatio valid on random instances" ~count:60
    instance_gen (fun (seed, n) ->
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 2) in
      let r =
        Sched.Heuristics.run ~rng ~platform ~apps
          Sched.Heuristics.dominant_min_ratio
      in
      match r.Sched.Heuristics.schedule with
      | Some s -> Model.Schedule.is_valid s && r.Sched.Heuristics.makespan > 0.
      | None -> false)

let qcheck_dominant_beats_random_part =
  QCheck.Test.make
    ~name:"DominantMinRatio never loses to RandomPart by more than noise"
    ~count:40 instance_gen (fun (seed, n) ->
      QCheck.assume (n >= 2);
      let apps = synth ~seed n in
      let rng = Util.Rng.create (seed + 3) in
      let d =
        Sched.Heuristics.makespan ~rng ~platform ~apps
          Sched.Heuristics.dominant_min_ratio
      in
      let r = Sched.Heuristics.makespan ~rng ~platform ~apps Sched.Heuristics.RandomPart in
      d <= r *. (1. +. 1e-6))

(* --- Rounding ------------------------------------------------------------- *)

let rounding_preserves_total () =
  let shares = [| 3.7; 2.1; 1.2; 9.0 |] in
  let counts = Sched.Rounding.largest_remainder ~total:16 shares in
  Alcotest.(check int) "sums to total" 16 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun c -> Alcotest.(check bool) "at least 1" true (c >= 1)) counts

let rounding_exact_integers () =
  let counts = Sched.Rounding.largest_remainder ~total:10 [| 4.; 3.; 2.; 1. |] in
  Alcotest.(check (array int)) "identity on integers" [| 4; 3; 2; 1 |] counts

let rounding_fractional () =
  let counts = Sched.Rounding.largest_remainder ~total:4 [| 1.6; 1.6; 0.8 |] in
  Alcotest.(check int) "total" 4 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun c -> Alcotest.(check bool) ">= 1" true (c >= 1)) counts

let rounding_subunit_shares () =
  (* Many sub-unit shares: floor-of-1 overshoots; reclaim path. *)
  let counts = Sched.Rounding.largest_remainder ~total:4 [| 0.5; 0.5; 0.5; 2.5 |] in
  Alcotest.(check int) "total" 4 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun c -> Alcotest.(check bool) ">= 1" true (c >= 1)) counts

let rounding_rejects_insufficient () =
  Alcotest.(check bool) "total < n" true
    (try
       ignore (Sched.Rounding.largest_remainder ~total:2 [| 1.; 1.; 1. |]);
       false
     with Invalid_argument _ -> true)

let rounding_integerize_schedule () =
  let apps = synth ~seed:46 8 in
  let rng = Util.Rng.create 47 in
  let r =
    Sched.Heuristics.run ~rng ~platform ~apps Sched.Heuristics.dominant_min_ratio
  in
  let s = Option.get r.Sched.Heuristics.schedule in
  let rounded = Sched.Rounding.integerize s in
  Alcotest.(check bool) "valid" true (Model.Schedule.is_valid rounded);
  check_close ~eps:1e-9 "integral total" 256. (Model.Schedule.total_procs rounded);
  Array.iter
    (fun { Model.Schedule.procs; _ } ->
      check_float "integral" (Float.round procs) procs)
    rounded.Model.Schedule.allocs;
  (* Rounding can only hurt (or tie) the rational optimum's makespan when
     shares were >= 1; with 8 apps on 256 procs every share is large. *)
  Alcotest.(check bool) "no better than rational" true
    (Model.Schedule.makespan rounded >= Model.Schedule.makespan s *. (1. -. 1e-9))

let qcheck_rounding_total =
  QCheck.Test.make ~name:"largest remainder always sums to total" ~count:200
    QCheck.(pair (int_range 1 20) (int_bound 1_000))
    (fun (n, seed) ->
      let rng = Util.Rng.create seed in
      let shares = Array.init n (fun _ -> Util.Rng.uniform rng 0. 20.) in
      let total = n + Util.Rng.int rng 100 in
      let counts = Sched.Rounding.largest_remainder ~total shares in
      Array.fold_left ( + ) 0 counts = total
      && Array.for_all (fun c -> c >= 1) counts)

let () =
  Alcotest.run "sched"
    [
      ( "choice",
        [
          test "names" choice_names;
          test "of_string" choice_of_string;
          test "min/max are extremes" choice_min_max_are_extremes;
          test "respects candidate set" choice_respects_candidates;
          test "rejects empty candidates" choice_empty_rejected;
          test "deterministic tiebreak" choice_deterministic_tiebreak;
        ] );
      ( "partition_builder",
        [
          test "strategy names" builder_strategies;
          test "always dominant" builder_always_dominant;
          test "full set kept when easy" builder_full_set_when_easy;
          test "rev grows from empty" builder_rev_grows_from_empty;
          test "single application" builder_single_app;
          qtest qcheck_builder_dominant;
          qtest qcheck_builder_matches_reference;
        ] );
      ( "equalize",
        [
          test "perfectly parallel closed form" equalize_perfect_parallel_closed_form;
          test "equal finish" equalize_equal_finish;
          test "more apps than processors" equalize_more_apps_than_procs;
          test "single application" equalize_single_app;
          test "cache never hurts" equalize_makespan_decreasing_in_cache;
          test "rejects empty" equalize_rejects_empty;
          test "work costs" equalize_work_costs;
          qtest qcheck_equalize_valid;
        ] );
      ( "heuristics",
        [
          test "policy names" all_policies_named;
          test "of_string roundtrip" of_string_roundtrip;
          test "all schedules valid" all_schedules_valid;
          test "equalized policies equal finish" equalized_policies_equal_finish;
          test "AllProcCache is the solo sum" all_proc_cache_is_sum;
          test "Fair allocation shape" fair_allocation_shape;
          test "0cache gives no cache" zero_cache_gives_no_cache;
          test "dominant beats baselines" dominant_beats_baselines_generally;
          test "dominant never loses to 0cache" dominant_beats_zero_cache_always;
          test "deterministic per seed" random_variants_consume_rng;
          test "cached subset reported" cached_subset_reported;
          test "empty instance rejected" empty_instance_rejected;
          qtest qcheck_dominant_valid_everywhere;
          qtest qcheck_dominant_beats_random_part;
        ] );
      ( "rounding",
        [
          test "preserves total" rounding_preserves_total;
          test "identity on integers" rounding_exact_integers;
          test "fractional shares" rounding_fractional;
          test "sub-unit shares" rounding_subunit_shares;
          test "rejects total < n" rounding_rejects_insufficient;
          test "integerize schedule" rounding_integerize_schedule;
          qtest qcheck_rounding_total;
        ] );
    ]
