(* Benchmark harness: one executable, one timing method, five sections.

     solver    hot-path kernels and the paper's heuristics, ns/op and
               exact minor-heap words/op          -> BENCH_solver.json
     online    warm re-solves vs the cold baseline,
               per policy                         -> BENCH_online.json
     stats     heavy-tailed samplers and a flash crowd (the "stats"
               record of BENCH_online.json, written with `online`;
               `online` alone keeps the committed record)
     exact     branch-and-bound certification     -> BENCH_exact.json
     recovery  journal replay vs snapshot restore -> BENCH_serve.json

   Usage: main.exe [SECTION...] [--seed S] [--smoke] [--guard]
                   [--trace FILE] [--metrics text|prom|json]

   No SECTION runs all five.  Every document is parsed back with
   Obs.Trace_json before it is written; --smoke shrinks repetitions and
   only validates, writing no file.  The counted gates (the solver
   section's allocation and bit-identity gates, the online section's
   iteration speedup) always hold; the timing gates fail the run only
   under --guard (otherwise they print a warning).

   End-to-end timings of the figure campaigns, the forked daemon and the
   10^5-job live service are perfbench's (`python3 perfbench/run.py`);
   the figures themselves are `cosched experiment`. *)

type cfg = { seed : int; smoke : bool; guard : bool }

(* --- gates and emission ----------------------------------------------- *)

let failures : string list ref = ref []

(* An [enforced] gate fails the run; any other prints a warning. *)
let gate ~enforced ok msg =
  if not ok then
    if enforced then failures := msg :: !failures
    else prerr_endline ("bench warning: " ^ msg)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Obs.Trace_json.add_escaped b s;
  Buffer.contents b

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let num = Printf.sprintf "%.6g"

let emit cfg path json =
  ignore (Obs.Trace_json.parse json : Obs.Trace_json.json);
  if cfg.smoke then Printf.printf "validated %s (smoke: not written)\n" path
  else begin
    Obs.Trace_json.write ~path json;
    Printf.printf "wrote %s\n" path
  end

(* A value from a committed BENCH_* file, read before this run
   overwrites it; [None] when the file or the field is missing. *)
let committed path fields =
  match Obs.Trace_json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | j ->
    let field acc k = Option.bind acc (Obs.Trace_json.member k) in
    List.fold_left field (Some j) fields
  | exception (Sys_error _ | Failure _) -> None

let baseline path fields =
  match committed path fields with
  | Some (Obs.Trace_json.Num v) -> Some v
  | _ -> None

(* Re-emit a parsed document; numbers take the shortest form that reads
   back to the same float. *)
let rec render = function
  | Obs.Trace_json.Null -> "null"
  | Bool b -> string_of_bool b
  | Num v ->
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  | Str s -> str s
  | List l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Obj fields -> obj (List.map (fun (k, v) -> (k, render v)) fields)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let table header rows =
  let t = Util.Table.create header in
  List.iter (Util.Table.add_row t) rows;
  Util.Table.print t;
  print_newline ()

let platform = Model.Platform.paper_default

(* --- solver: ns/op and minor words/op ----------------------------------- *)

type sample = {
  name : string;
  reps : int;
  ns_per_op : float;
  minor_words_per_op : float;
}

let samples : sample list ref = ref []

(* The heat sink: every benchmark body folds something into it so the
   compiler cannot discard the work. *)
let sink = ref 0.

let measure cfg ~name ?(warmup = 3) ~reps f =
  let reps = if cfg.smoke then max 1 (reps / 20) else reps in
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let s =
    {
      name;
      reps;
      ns_per_op = (t1 -. t0) *. 1e9 /. float_of_int reps;
      minor_words_per_op = (w1 -. w0) /. float_of_int reps;
    }
  in
  samples := s :: !samples;
  Printf.printf "%-34s %12.0f ns/op %12.1f words/op  (%d reps)\n%!" s.name
    s.ns_per_op s.minor_words_per_op s.reps;
  s

let n_apps = 64

(* Theorem 3 fractions on the dominant partition: the allocation every
   solver below actually bisects at. *)
let fixture cfg =
  let apps =
    Model.Workload.generate ~rng:(Util.Rng.create cfg.seed) Model.Workload.Random
      n_apps
  in
  let subset = Online.Incremental.cold_partition ~platform apps in
  (apps, Theory.Dominant.cache_allocation_capped ~platform ~apps subset)

let n_points = 256

let xs =
  Array.init n_points (fun i -> (float_of_int i +. 1.) /. float_of_int n_points)

let bench_work_cost cfg apps =
  let cursor = ref 0 in
  let direct =
    measure cfg ~name:"work_cost/exec_model" ~reps:20_000 (fun () ->
        let j = !cursor in
        cursor := (j + 1) mod n_points;
        let acc = ref 0. in
        for i = 0 to n_apps - 1 do
          let x = xs.((i + j) mod n_points) in
          acc := !acc +. Model.Exec_model.work_cost ~app:apps.(i) ~platform ~x
        done;
        sink := !sink +. !acc;
        !acc)
  in
  let kern = Model.Kernel.create ~platform apps in
  let cursor = ref 0 in
  let kernel =
    measure cfg ~name:"work_cost/kernel" ~reps:20_000 (fun () ->
        let j = !cursor in
        cursor := (j + 1) mod n_points;
        let acc = ref 0. in
        for i = 0 to n_apps - 1 do
          let x = xs.((i + j) mod n_points) in
          (* cost then derivative at the same point — the refinement
             loop's access pattern; the second call hits the memo. *)
          acc :=
            !acc
            +. Model.Kernel.work_cost kern i x
            +. (1e-30 *. Model.Kernel.cost_derivative kern i x)
        done;
        sink := !sink +. !acc;
        !acc)
  in
  (direct, kernel)

let bench_solve cfg apps x_star =
  let ws = Sched.Workspace.create ~n:n_apps () in
  let run name ?ws () =
    measure cfg ~name ~reps:5_000 (fun () ->
        let k = Sched.Equalize.solve_makespan ?ws ~platform ~apps x_star in
        sink := !sink +. k;
        k)
  in
  let cold_fresh = run "solve_makespan/cold-fresh" () in
  (cold_fresh, run "solve_makespan/cold-ws" ~ws ())

(* Per-evaluation allocation of both root-finder entries: a looser
   tolerance runs materially fewer objective evaluations, so equal
   words/solve at both tolerances proves the per-evaluation allocation
   is zero (the small constant is the solve's own state record and
   closures).  The paper entry runs through a workspace, the online
   entry on preallocated columns as the service calls it. *)
type alloc_gate = {
  tight : sample;
  loose : sample;
  iters_tight : int;
  iters_loose : int;
}

let alloc_gate cfg ~name solve =
  let iters_at tol =
    let iters = ref 0 in
    ignore (solve ~tol ~iters);
    !iters
  in
  let run tol =
    measure cfg ~name:(Printf.sprintf "%stol-%g" name tol) ~reps:5_000 (fun () ->
        let k = solve ~tol ~iters:(ref 0) in
        sink := !sink +. k;
        k)
  in
  let tight = run 1e-13 in
  let loose = run 1e-6 in
  { tight; loose; iters_tight = iters_at 1e-13; iters_loose = iters_at 1e-6 }

let bench_zero_alloc cfg apps x_star =
  let ws = Sched.Workspace.create ~n:n_apps () in
  let s = Array.map (fun app -> app.Model.App.s) apps in
  let costs = Sched.Equalize.work_costs ~platform ~apps ~x:x_star in
  ( alloc_gate cfg ~name:"solve_makespan/ws-" (fun ~tol ~iters ->
        Sched.Equalize.solve_makespan ~tol ~iters ~ws ~platform ~apps x_star),
    alloc_gate cfg ~name:"solve_cols/" (fun ~tol ~iters ->
        Sched.Equalize.solve_cols ~tol ~iters ~platform ~s ~costs ~n:n_apps ())
  )

(* The speedup-aware refinement against its kept pre-overhaul reference. *)
let bench_refine cfg apps x_star =
  let ws = Sched.Workspace.create ~n:n_apps () in
  let run name refine =
    measure cfg ~name ~reps:60 (fun () ->
        let r = refine () in
        sink := !sink +. r.Sched.Refine.makespan;
        r.Sched.Refine.makespan)
  in
  let reference =
    run "refine/reference" (fun () ->
        Sched.Refine.refine_reference ~platform ~apps ~x0:x_star ())
  in
  ( reference,
    run "refine/optimized" (fun () ->
        Sched.Refine.refine ~ws ~platform ~apps ~x0:x_star ()) )

(* The cold eviction-loop partition over progress-drift snapshots: each
   snapshot rescales works app-by-app, differentially, so consecutive
   solves see a different ratio order. *)
let bench_partition cfg apps =
  let n_snapshots = 8 in
  let snapshots =
    Array.init n_snapshots (fun j ->
        Array.mapi
          (fun i app ->
            let wiggle =
              1. +. (0.2 *. float_of_int ((i * (j + 3)) mod 7) /. 7.)
            in
            Model.App.with_w app (app.Model.App.w *. wiggle))
          apps)
  in
  let cursor = ref 0 in
  ignore
    (measure cfg ~name:"cold_partition/eviction-loop" ~reps:2_000 (fun () ->
         let j = !cursor in
         cursor := (j + 1) mod n_snapshots;
         let s = Online.Incremental.cold_partition ~platform snapshots.(j) in
         sink := !sink +. (if s.(0) then 1. else 0.);
         s))

(* Admitting a job into the columnar state costs a constant number of
   minor words — the job handle — independent of the live-set size: the
   float columns are preallocated, the slot comes off the freelist and
   the dense iteration array appends in place.  Measured at two live
   sizes chosen to sit just under a capacity doubling (128 and 2048) so
   no growth lands inside the measured window; a per-arrival cost that
   scaled with the live set would show up as a gap between the two. *)
let arrival_words ~live =
  let rng = Util.Rng.create 4242 in
  let pool_apps = Model.Workload.generate ~rng Model.Workload.NpbSynth 256 in
  let st = Online.State.create platform in
  for i = 0 to live - 1 do
    ignore (Online.State.add st ~app:pool_apps.(i mod 256))
  done;
  let reps = 32 in
  (* Retire [reps] jobs first so the measured arrivals run the
     steady-state freelist-reuse path rather than minting fresh slots. *)
  let js = Online.State.live st in
  for i = 0 to reps - 1 do
    Online.State.cancel st js.(i)
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to reps - 1 do
    ignore (Online.State.add st ~app:pool_apps.((live + i) mod 256))
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int reps

(* Two worker domains, one mid-size columnar instance crossing the
   solver's 2048-wide demand chunk: the sharded solve must reproduce the
   sequential makespan bit-for-bit (the exhaustive gate lives in the
   QCheck suite; this keeps a live pool inside `dune runtest`), and both
   paths are timed for the JSON. *)
let bench_sharded_solve cfg =
  let n = 3_000 in
  let big =
    Model.Workload.generate ~rng:(Util.Rng.create 97) Model.Workload.NpbSynth n
  in
  let solve pool =
    let st = Online.State.create platform in
    Array.iter (fun app -> ignore (Online.State.add st ~app)) big;
    let inc = Online.Incremental.create () in
    let k, _ =
      Online.Incremental.solve_state inc ?pool ~shard_min:1 ~elapsed:0.
        ~state:st ()
    in
    k
  in
  let run name pool =
    measure cfg ~name ~reps:20 (fun () ->
        let k = solve pool in
        sink := !sink +. k;
        k)
  in
  let seq = run "solve_state/seq-3000" None in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let shd = run "solve_state/sharded-2dom-3000" (Some pool) in
      (seq, shd, solve (Some pool) = solve None))

(* The paper's policies end to end on NPB-synth instances, the 2^n
   enumerator, the cache simulator's two kernels and the discrete-event
   replay of one schedule. *)
let bench_paper cfg =
  let instance n =
    Model.Workload.generate ~rng:(Util.Rng.create cfg.seed)
      Model.Workload.NpbSynth n
  in
  List.iter
    (fun policy ->
      List.iter
        (fun (n, reps) ->
          let apps = instance n in
          let rng = Util.Rng.create (cfg.seed + 1) in
          ignore
            (measure cfg
               ~name:(Printf.sprintf "%s/n=%d" (Sched.Heuristics.name policy) n)
               ~reps (fun () ->
                 Sched.Heuristics.makespan ~rng ~platform ~apps policy)))
        [ (16, 2_000); (64, 500); (256, 40) ])
    Sched.Heuristics.
      [ dominant_min_ratio; DominantPartition (DominantRev, MaxRatio); Fair; ZeroCache ];
  let apps = instance 12 in
  ignore
    (measure cfg ~name:"Exact.optimal/n=12" ~reps:40 (fun () ->
         Theory.Exact.optimal ~platform ~apps ()));
  let trace =
    Cachesim.Trace.zipf ~rng:(Util.Rng.create cfg.seed) ~blocks:4096
      ~length:100_000 ()
  in
  ignore
    (measure cfg ~name:"Mattson.analyze/100k" ~reps:10 (fun () ->
         Cachesim.Mattson.analyze trace));
  ignore
    (measure cfg ~name:"Lru.run/100k" ~reps:10 (fun () ->
         Cachesim.Lru.run ~capacity:1024 trace));
  let r =
    Sched.Heuristics.run ~rng:(Util.Rng.create cfg.seed) ~platform
      ~apps:(instance 64) Sched.Heuristics.dominant_min_ratio
  in
  let schedule = Option.get r.Sched.Heuristics.schedule in
  ignore
    (measure cfg ~name:"Coschedule_sim.run/n=64" ~reps:500 (fun () ->
         Simulator.Coschedule_sim.run schedule))

let solver cfg =
  print_endline "== solver: ns/op and minor words/op ==";
  let apps, x_star = fixture cfg in
  let direct, kernel = bench_work_cost cfg apps in
  let cold_fresh, cold_ws = bench_solve cfg apps x_star in
  let paper, cols = bench_zero_alloc cfg apps x_star in
  let reference, optimized = bench_refine cfg apps x_star in
  bench_partition cfg apps;
  let arrival_small = arrival_words ~live:96 in
  let arrival_big = arrival_words ~live:1920 in
  let seq3k, shd3k, sharded_same = bench_sharded_solve cfg in
  bench_paper cfg;
  let refine_speedup = reference.ns_per_op /. optimized.ns_per_op in
  let gap g = g.tight.minor_words_per_op -. g.loose.minor_words_per_op in
  (* Constant words per arrival at a 20x live-set gap ==> the columnar
     admission path never touches O(live) memory. *)
  let arrival_gap = arrival_big -. arrival_small in
  let arrival_const = Float.abs arrival_gap < 1. in
  (* Equal allocation at ~2x different evaluation counts ==> zero words
     per evaluation.  Sub-word slack absorbs the measurement scaffolding
     (the [Gc.minor ()] call's own boxes amortised over the reps). *)
  let zero_alloc g = g.iters_tight > g.iters_loose && Float.abs (gap g) < 1. in
  let derived =
    [
      ("work_cost_speedup_vs_exec_model", direct.ns_per_op /. kernel.ns_per_op);
      ("solve_cold_ws_speedup_vs_fresh", cold_fresh.ns_per_op /. cold_ws.ns_per_op);
      ("refine_speedup_vs_reference", refine_speedup);
      ("solver_iters_tol13", float_of_int paper.iters_tight);
      ("solver_iters_tol6", float_of_int paper.iters_loose);
      ("solver_alloc_words_gap", gap paper);
      ("solve_cols_iters_tol13", float_of_int cols.iters_tight);
      ("solve_cols_iters_tol6", float_of_int cols.iters_loose);
      ("solve_cols_alloc_words_gap", gap cols);
      ("arrival_words_live96", arrival_small);
      ("arrival_words_live1920", arrival_big);
      ("arrival_words_gap", arrival_gap);
      ("sharded_solve_speedup_2dom", seq3k.ns_per_op /. shd3k.ns_per_op);
    ]
  in
  let sample s =
    obj
      [
        ("name", str s.name);
        ("reps", string_of_int s.reps);
        ("ns_per_op", num s.ns_per_op);
        ("minor_words_per_op", num s.minor_words_per_op);
      ]
  in
  emit cfg "BENCH_solver.json"
    (obj
       [
         ("mode", str (if cfg.smoke then "smoke" else "full"));
         ("apps", string_of_int n_apps);
         ("seed", string_of_int cfg.seed);
         ("benchmarks", "[" ^ String.concat "," (List.rev_map sample !samples) ^ "]");
         ("derived", obj (List.map (fun (k, v) -> (k, num v)) derived));
         ("zero_alloc_per_bisection_eval", string_of_bool (zero_alloc paper));
         ("zero_alloc_per_solve_cols_eval", string_of_bool (zero_alloc cols));
         ("arrival_alloc_constant", string_of_bool arrival_const);
         ("sharded_solve_bit_identical", string_of_bool sharded_same);
       ]);
  List.iter
    (fun (entry, g) ->
      gate ~enforced:true (zero_alloc g)
        (Printf.sprintf
           "%s allocates per evaluation (%.2f words gap, %d vs %d evals)" entry
           (gap g) g.iters_tight g.iters_loose))
    [ ("solve_makespan", paper); ("solve_cols", cols) ];
  gate ~enforced:true arrival_const
    (Printf.sprintf
       "columnar arrival cost scales with the live set (%.2f vs %.2f \
        words/arrival at live 96 vs 1920)"
       arrival_small arrival_big);
  gate ~enforced:true sharded_same
    "2-domain sharded solve differs from sequential";
  (* Smoke repetitions are too few to time a 2x gap reliably. *)
  gate ~enforced:(not cfg.smoke) (refine_speedup >= 2.)
    (Printf.sprintf "refine speedup %.2fx < 2x over the naive reference"
       refine_speedup);
  Printf.printf "refine speedup vs reference: %.2fx (sink=%h)\n\n" refine_speedup
    !sink

(* --- stats: heavy-tailed samplers and a flash crowd --------------------- *)

(* Sampler cost per distribution plus end-to-end service throughput under
   a flash-crowd arrival process.  With --guard the flash-crowd events/sec
   is gated at 20% against the committed BENCH_online.json. *)
let stats cfg =
  let n = 200_000 in
  let dists =
    [
      ("exponential", Stats.Dist.Exponential { rate = 1. });
      ("pareto", Stats.Dist.Pareto { alpha = 1.5; xm = 1. });
      ("lognormal", Stats.Dist.Lognormal { mu = 0.; sigma = 1. });
      ("weibull", Stats.Dist.Weibull { shape = 0.7; scale = 1. });
      ("hyperexp", Stats.Dist.of_string "hyperexp:p=0.9,mean1=0.5,mean2=8");
    ]
  in
  let sampler_rows =
    List.map
      (fun (name, d) ->
        let rng = Util.Rng.create cfg.seed in
        let (), dt =
          timed (fun () ->
              for _ = 1 to n do
                ignore (Sys.opaque_identity (Stats.Dist.sample d rng))
              done)
        in
        (name, 1e9 *. dt /. float_of_int n))
      dists
  in
  let rng = Util.Rng.create cfg.seed in
  let scenario =
    Stats.Scenario.of_string "flash:base=2,burst=24,every=40,a=1.5,xm=3"
  in
  let stream =
    Online.Workload_stream.scenario_load ~rng ~platform ~scenario
      ~dataset:Model.Workload.NpbSynth 150
  in
  let report, dt = timed (fun () -> Online.Service.run ~platform stream) in
  let m = report.Online.Service.metrics in
  let flash_eps = float_of_int m.Online.Metrics.events /. Float.max dt 1e-9 in
  print_endline "== stats: heavy-tailed samplers and flash-crowd serving ==";
  table [ "sampler"; "ns/op" ]
    (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns ]) sampler_rows);
  Printf.printf
    "flash crowd: %d events in %.3g s = %.0f events/s (mean stretch %.3g)\n\n"
    m.Online.Metrics.events dt flash_eps m.Online.Metrics.mean_stretch;
  (match baseline "BENCH_online.json" [ "stats"; "flash_events_per_sec" ] with
  | Some old ->
    gate ~enforced:cfg.guard (flash_eps >= 0.8 *. old)
      (Printf.sprintf "flash-crowd serving regressed >20%%: %.0f -> %.0f events/s"
         old flash_eps)
  | None -> print_endline "no flash-crowd baseline in BENCH_online.json");
  obj
    [
      ("samples_per_dist", string_of_int n);
      ( "sampler_ns_per_op",
        obj (List.map (fun (name, ns) -> (name, num ns)) sampler_rows) );
      ("flash_scenario", str (Stats.Scenario.to_string scenario));
      ("flash_events", string_of_int m.Online.Metrics.events);
      ("flash_events_per_sec", num flash_eps);
      ("flash_mean_stretch", num m.Online.Metrics.mean_stretch);
    ]

(* --- online: warm re-solves against the cold baseline -------------------- *)

(* Serve one 100-application Poisson stream under every built-in re-solve
   policy.  The warm run is timed alone for events/sec; a second,
   identical run hands the residual instance of each of its re-solves to
   [Online.Incremental.solve], the cold baseline, timing and counting
   only those solves.  The warm-vs-cold solver-iteration speedup is a
   count, so its >= 1.5 gate always holds; the wall-clock gate (warm
   events/sec >= 0.9x cold) holds under --guard.  [stats_json] is the
   stats section's record when it ran too, else the committed one. *)
let online cfg stats_json =
  let napps = 100 and load = 8. in
  let rng = Util.Rng.create cfg.seed in
  let stream =
    Online.Workload_stream.poisson_load ~rng ~platform ~load
      ~dataset:Model.Workload.NpbSynth napps
  in
  (* The cold baseline on every re-solve of a warm replay, through the
     service's listener: returns its counters and total solve time. *)
  let cold_baseline config =
    let inc = Online.Incremental.create () and dt = ref 0. and lv = ref None in
    let listener = function
      | Online.Service.Completed _ -> ()
      | Resolved _ ->
        let jobs = Online.State.live (Online.Service.live_state (Option.get !lv)) in
        let apps = Array.map Online.State.remaining_app jobs in
        dt := !dt +. snd (timed (fun () -> Online.Incremental.solve inc ~platform ~apps))
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
    Online.Service.drain live;
    (Online.Incremental.counters inc, !dt)
  in
  let results =
    List.map
      (fun policy ->
        let config = { Online.Service.default_config with policy } in
        let report, dt = timed (fun () -> Online.Service.run ~config ~platform stream) in
        let warm = report.Online.Service.metrics in
        let events = float_of_int warm.Online.Metrics.events in
        let eps_warm = events /. Float.max dt 1e-9 in
        let cold, dt_cold = cold_baseline config in
        let eps_cold = events /. Float.max dt_cold 1e-9 in
        let speedup =
          float_of_int cold.Online.Incremental.solver_iters
          /. float_of_int (max 1 warm.Online.Metrics.solver_iters)
        in
        let name = Online.Policy.name policy in
        (* The warm service may never lose to the cold solves alone on
           wall-clock; wall-clock is noisy, so warm gets a 10%
           measurement allowance. *)
        gate ~enforced:cfg.guard (eps_warm >= 0.9 *. eps_cold)
          (Printf.sprintf "%s: warm %.0f ev/s < cold %.0f ev/s" name eps_warm
             eps_cold);
        gate ~enforced:true (speedup >= 1.5)
          (Printf.sprintf "%s: warm_vs_cold_iter_speedup %.2f < 1.5" name speedup);
        (name, warm, cold, eps_warm, eps_cold, speedup))
      Online.Policy.defaults
  in
  print_endline "== online service (100-app Poisson stream, load 8) ==";
  table
    [ "policy"; "events/s(warm)"; "iters(warm)"; "iters(cold)"; "speedup"; "migrations" ]
    (List.map
       (fun (name, warm, cold, eps_warm, _, speedup) ->
         [
           name;
           Printf.sprintf "%.0f" eps_warm;
           string_of_int warm.Online.Metrics.solver_iters;
           string_of_int cold.Online.Incremental.solver_iters;
           Printf.sprintf "%.3f" speedup;
           string_of_int warm.Online.Metrics.migrations;
         ])
       results);
  let policy (name, warm, cold, eps_warm, eps_cold, speedup) =
    obj
      [
        ("policy", str name);
        ("events_per_sec_warm", num eps_warm);
        ("events_per_sec_cold", num eps_cold);
        ("warm_vs_cold_iter_speedup", num speedup);
        ("migrations", string_of_int warm.Online.Metrics.migrations);
        ("warm", Online.Metrics.to_json warm);
        ( "cold",
          obj
            [
              ("resolves", string_of_int cold.Online.Incremental.resolves);
              ("solver_iters", string_of_int cold.Online.Incremental.solver_iters);
              ("partition_ops", string_of_int cold.Online.Incremental.partition_ops);
            ] );
      ]
  in
  emit cfg "BENCH_online.json"
    (obj
       ([
          ("apps", string_of_int napps);
          ("load", Printf.sprintf "%g" load);
          ("seed", string_of_int cfg.seed);
        ]
       @ Option.to_list (Option.map (fun j -> ("stats", j)) stats_json)
       @ [ ("policies", "[" ^ String.concat "," (List.map policy results) ^ "]") ]))

(* --- exact: branch-and-bound certification ------------------------------ *)

(* Three measurements:
   - speedup vs the 2^n enumeration at n = 20: one Exact.optimal run
     against the warm average of repeated Bnb solves on the same
     instance (the acceptance gate is >= 1e4x);
   - node throughput during *real* search: on the paper's 32 GB node the
     bounds close almost every instance at the root, so the timed
     workload moves to the 1 GB LLC with m0 = 0.9 Random instances at
     n = 32 — cache pressure loosens the relaxation enough to force tens
     to hundreds of thousands of node expansions while still certifying;
   - the certification frontier: a paper-default n = 36 instance
     certified under the default budget.
   With --guard the speedup and an absolute node-throughput floor are
   enforced; both leave an order of magnitude of headroom for slower
   hosts. *)
let exact_speedup_floor = 1e4
let exact_nodes_per_sec_floor = 100_000.

let exact cfg =
  let enforced = cfg.guard in
  let generate ?fixed_m0 ~seed dataset n =
    Model.Workload.generate ~fixed_s:0. ?fixed_m0 ~rng:(Util.Rng.create seed)
      dataset n
  in
  let apps_20 = generate ~seed:cfg.seed Model.Workload.NpbSynth 20 in
  let enum, t_exact =
    timed (fun () -> Theory.Exact.optimal ~platform ~apps:apps_20 ())
  in
  let reps = 50 in
  ignore (Theory.Bnb.solve ~platform ~apps:apps_20 () : Theory.Bnb.result);
  let bnb_20, t_bnb =
    timed (fun () ->
        let last = ref None in
        for _ = 1 to reps do
          last := Some (Theory.Bnb.solve ~platform ~apps:apps_20 ())
        done;
        Option.get !last)
  in
  let t_bnb = t_bnb /. float_of_int reps in
  if bnb_20.Theory.Bnb.makespan <> enum.Theory.Exact.makespan then
    failwith "exact bench: Bnb optimum differs from the 2^n enumeration";
  let speedup = t_exact /. Float.max t_bnb 1e-12 in
  gate ~enforced (speedup >= exact_speedup_floor)
    (Printf.sprintf "speedup vs Exact at n=20: %.0fx below the %.0fx floor"
       speedup exact_speedup_floor);
  (* Node throughput under cache pressure (aggregate over six seeds). *)
  let budget = { Theory.Bnb.max_nodes = 2_000_000; max_seconds = 30. } in
  let searches, t_search =
    timed (fun () ->
        List.init 6 (fun s ->
            let apps =
              generate ~fixed_m0:0.9 ~seed:(cfg.seed + s + 1) Model.Workload.Random 32
            in
            Theory.Bnb.solve ~budget ~platform:Model.Platform.small_llc ~apps ()))
  in
  let total_nodes =
    List.fold_left (fun acc r -> acc + r.Theory.Bnb.stats.Theory.Bnb.nodes) 0 searches
  in
  let uncertified =
    List.length
      (List.filter (fun r -> r.Theory.Bnb.verdict <> Theory.Bnb.Certified) searches)
  in
  let nodes_per_sec = float_of_int total_nodes /. Float.max t_search 1e-9 in
  gate ~enforced (nodes_per_sec >= exact_nodes_per_sec_floor)
    (Printf.sprintf "node throughput %.0f/s below the %.0f/s floor" nodes_per_sec
       exact_nodes_per_sec_floor);
  gate ~enforced (uncertified = 0)
    (Printf.sprintf "%d of 6 cache-pressured n=32 instances not certified"
       uncertified);
  (* Certification frontier: n = 36 under the default budget. *)
  let apps_36 = generate ~seed:cfg.seed Model.Workload.NpbSynth 36 in
  let front, t_front = timed (fun () -> Theory.Bnb.solve ~platform ~apps:apps_36 ()) in
  let verdict = Theory.Bnb.verdict_name front.Theory.Bnb.verdict in
  gate ~enforced (front.Theory.Bnb.verdict = Theory.Bnb.Certified)
    "n=36 paper-default instance not certified under the default budget";
  let nodes r = r.Theory.Bnb.stats.Theory.Bnb.nodes in
  print_endline "== branch-and-bound certification (Theory.Bnb) ==";
  table [ "metric"; "value" ]
    [
      [ "Exact.optimal n=20"; Printf.sprintf "%.3g s" t_exact ];
      [
        "Bnb.solve n=20";
        Printf.sprintf "%.3g s (avg of %d, %d nodes)" t_bnb reps (nodes bnb_20);
      ];
      [ "speedup"; Printf.sprintf "%.0fx (floor %.0fx)" speedup exact_speedup_floor ];
      [
        "node throughput";
        Printf.sprintf "%.0f nodes/s over %d nodes (floor %.0f/s)" nodes_per_sec
          total_nodes exact_nodes_per_sec_floor;
      ];
      [
        "certify n=36";
        Printf.sprintf "%s in %.3g s (%d nodes)" verdict t_front (nodes front);
      ];
    ];
  emit cfg "BENCH_exact.json"
    (obj
       [
         ("seed", string_of_int cfg.seed);
         ("exact_n20_seconds", num t_exact);
         ("bnb_n20_seconds", num t_bnb);
         ("bnb_n20_nodes", string_of_int (nodes bnb_20));
         ("speedup_vs_exact_n20", num speedup);
         ("speedup_floor", num exact_speedup_floor);
         ( "node_throughput",
           obj
             [
               ("workload", str "random n=32, 1 GB LLC, m0=0.9, 6 seeds");
               ("nodes", string_of_int total_nodes);
               ("seconds", num t_search);
               ("nodes_per_sec", num nodes_per_sec);
               ("floor", num exact_nodes_per_sec_floor);
             ] );
         ( "certify_n36",
           obj
             [
               ("verdict", str verdict);
               ("seconds", num t_front);
               ("nodes", string_of_int (nodes front));
             ] );
       ])

(* --- recovery: journal replay vs snapshot restore ----------------------- *)

(* Drive a journal-backed backend in-process (recovery cost lives
   entirely in Backend.create) through histories of ~1e3 and ~1e4
   records that end with [live] jobs still in flight, then time recovery
   three ways: a fresh journal holding just [live] submits (the floor),
   full replay of the whole history, and snapshot-based recovery.  The
   snapshot scenario checkpoints once more after the last admission
   round — the daemon checkpoints, then crashes — so it times the
   restore path itself: O(live jobs), independent of history length,
   where a crash mid-period additionally replays at most
   [snapshot_every] tail entries.  Timings are best-of-3 (recovery does
   not mutate the on-disk state, so re-timing it is free).  With --guard
   snapshot recovery of the 1e4-record history must stay within 3x of
   the fresh [live]-job replay and within 20% of the committed
   BENCH_serve.json. *)
let recovery cfg =
  let live = 100 in
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cosched_bench_recovery_%d" (Unix.getpid ()))
  in
  let jpath = base ^ ".journal" and spath = base ^ ".snap" in
  (* Every journal segment and snapshot generation a scenario leaves,
     so the next one starts from nothing. *)
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      (List.concat_map
         (fun p -> [ p; p ^ ".quarantine"; p ^ ".tmp" ])
         (List.init 3 (Campaign.Journal.segment_path jpath)
         @ List.init 3 (Serve.Snapshot.generation_path spath)))
  in
  let config ~snapshot =
    {
      Serve.Backend.default_config with
      service =
        { Online.Service.default_config with policy = Online.Policy.Batched 32 };
      platform;
      queue_depth = 1_000_000;
      journal = Some jpath;
      snapshot = (if snapshot then Some spath else None);
      snapshot_every = 512;
    }
  in
  let apps =
    Model.Workload.generate ~rng:(Util.Rng.create cfg.seed)
      Model.Workload.NpbSynth live
  in
  let rid = ref 0 in
  let send b ?at verb =
    incr rid;
    match
      Serve.Backend.handle b ~clients:0
        { Serve.Protocol.rid = !rid; sid = None; at; verb }
    with
    | { reply = Serve.Protocol.R_error { message; _ }; _ } ->
      failwith ("recovery bench request refused: " ^ message)
    | _ -> ()
  in
  let submit_all b =
    Array.iter
      (fun (a : Model.App.t) ->
        send b
          (Serve.Protocol.Submit
             {
               name = a.name; w = a.w; s = a.s; f = a.f; m0 = a.m0; c0 = a.c0;
               footprint = a.footprint;
             }))
      apps
  in
  (* One round = [live] submits + one timestamped status query, which
     journals one advance entry and sweeps every completion past it:
     live+1 journal records, bounded live set throughout. *)
  let build ~records ~snapshot =
    cleanup ();
    let b = Serve.Backend.create (config ~snapshot) in
    let written = ref 0 in
    while !written + live + 1 <= records - live do
      submit_all b;
      send b ~at:(Serve.Backend.now b +. 1e12)
        (Serve.Protocol.Query Serve.Protocol.Status);
      written := !written + live + 1
    done;
    submit_all b;
    if Serve.Backend.live_jobs b <> live then
      failwith
        (Printf.sprintf "recovery bench: expected %d live jobs, got %d" live
           (Serve.Backend.live_jobs b));
    if snapshot then
      match Serve.Backend.snapshot_now b with
      | Ok () -> ()
      | Error m -> failwith ("recovery bench: final checkpoint failed: " ^ m)
  in
  let time_recovery ~snapshot =
    let one () =
      let b, dt = timed (fun () -> Serve.Backend.create (config ~snapshot)) in
      if Serve.Backend.live_jobs b <> live then
        failwith "recovery bench: recovered live-job count mismatch";
      dt
    in
    List.fold_left (fun acc _ -> Float.min acc (one ())) (one ()) [ 1; 2 ]
  in
  (* Floor: a journal holding exactly the live submits. *)
  build ~records:live ~snapshot:false;
  let t_fresh = time_recovery ~snapshot:false in
  let scenario records =
    build ~records ~snapshot:false;
    let t_replay = time_recovery ~snapshot:false in
    build ~records ~snapshot:true;
    (records, t_replay, time_recovery ~snapshot:true)
  in
  let scenarios = List.map scenario [ 1_000; 10_000 ] in
  cleanup ();
  let _, _, t_snap_10k = List.find (fun (r, _, _) -> r = 10_000) scenarios in
  let ratio = t_snap_10k /. Float.max t_fresh 1e-9 in
  let gate_ok = t_snap_10k <= 3. *. Float.max t_fresh 1e-9 in
  print_endline "== crash recovery (journal replay vs snapshot restore) ==";
  table [ "history"; "replay"; "snapshot" ]
    ([ Printf.sprintf "%d live only" live; Printf.sprintf "%.4g s" t_fresh; "—" ]
    :: List.map
         (fun (r, t_replay, t_snap) ->
           [
             Printf.sprintf "%d records" r;
             Printf.sprintf "%.4g s" t_replay;
             Printf.sprintf "%.4g s" t_snap;
           ])
         scenarios);
  Printf.printf "snapshot recovery at 10k records = %.2fx fresh %d-job replay\n\n"
    ratio live;
  gate ~enforced:cfg.guard gate_ok
    "snapshot recovery exceeded 3x the fresh-journal replay floor";
  Option.iter
    (fun old ->
      gate ~enforced:cfg.guard (t_snap_10k <= 1.2 *. old)
        (Printf.sprintf "snapshot recovery regressed >20%%: %.4gs -> %.4gs" old
           t_snap_10k))
    (baseline "BENCH_serve.json" [ "recovery"; "snapshot_10000_seconds" ]);
  emit cfg "BENCH_serve.json"
    (obj
       [
         ("seed", string_of_int cfg.seed);
         ( "recovery",
           obj
             ([ ("live_jobs", string_of_int live); ("fresh_seconds", num t_fresh) ]
             @ List.concat_map
                 (fun (r, t_replay, t_snap) ->
                   [
                     (Printf.sprintf "replay_%d_seconds" r, num t_replay);
                     (Printf.sprintf "snapshot_%d_seconds" r, num t_snap);
                   ])
                 scenarios
             @ [
                 ("snapshot_vs_fresh_ratio_10k", num ratio);
                 ("gate_3x_ok", string_of_bool gate_ok);
               ]) );
       ])

(* --- command line ------------------------------------------------------- *)

type section = Solver | Online | Stats | Exact | Recovery

let all_sections = [ Solver; Stats; Online; Exact; Recovery ]

let run sections seed smoke guard trace metrics =
  let cfg = { seed; smoke; guard } in
  let on s = sections = [] || List.mem s sections in
  ignore (Obs.Report.configure ?trace ?metrics () : bool);
  Fun.protect
    ~finally:(fun () -> Obs.Report.finish ?trace ?metrics ())
    (fun () ->
      List.iter
        (function
          | Solver when on Solver -> solver cfg
          | Online when on Online ->
            (* The stats record is computed first: it reads its baseline
               from the BENCH_online.json this section rewrites.  Without
               the stats section the committed record is carried over, so
               the flash-crowd guard keeps its baseline. *)
            online cfg
              (if on Stats then Some (stats cfg)
               else Option.map render (committed "BENCH_online.json" [ "stats" ]))
          | Stats when on Stats && not (on Online) -> ignore (stats cfg : string)
          | Exact when on Exact -> exact cfg
          | Recovery when on Recovery -> recovery cfg
          | _ -> ())
        all_sections);
  List.iter (fun m -> prerr_endline ("bench guard: " ^ m)) (List.rev !failures);
  if !failures <> [] then 1
  else begin
    if guard then print_endline "bench guard: ok";
    0
  end

let cmd =
  let open Cmdliner in
  let sections =
    Arg.(
      value
      & pos_all
          (enum
             [
               ("solver", Solver); ("online", Online); ("stats", Stats);
               ("exact", Exact); ("recovery", Recovery);
             ])
          []
      & info [] ~docv:"SECTION"
          ~doc:
            "Sections to run: $(b,solver), $(b,online), $(b,stats), \
             $(b,exact), $(b,recovery).  None runs all of them.")
  in
  let seed =
    Arg.(value & opt int 2017 & info [ "seed" ] ~docv:"SEED" ~doc:"Master RNG seed.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Few repetitions, no refine-speedup gate; every JSON document is \
             validated in memory and no file is written.")
  in
  let guard =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:"Fail the run on the timing gates instead of warning.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the run's tracing spans to FILE as Chrome trace-event JSON.")
  in
  let metrics =
    let parse s =
      try Ok (Obs.Report.format_of_string s)
      with Invalid_argument m -> Error (`Msg m)
    in
    let print ppf f = Format.pp_print_string ppf (Obs.Report.format_name f) in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "metrics" ] ~docv:"FMT"
          ~doc:"Print an end-of-run metrics report: $(b,text), $(b,prom) or $(b,json).")
  in
  Cmd.v
    (Cmd.info "main" ~doc:"cosched benchmark harness")
    Term.(const run $ sections $ seed $ smoke $ guard $ trace $ metrics)

let () = exit (Cmdliner.Cmd.eval' cmd)
