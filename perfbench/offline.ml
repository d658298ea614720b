(* offline-paper: the Section 6 figure campaign — Figures.run for fig1
   to fig18 and table2 at 50 trials per point.  The record-based sched
   path dominates (fig1 is about three quarters of the time), beside
   experiments, the campaign layer and cachesim (table2); online and
   serve are absent.  Every campaign's rendered output is digest-checked:
   it must match the digest stored for the seed and be identical at one
   and two workers.

   The timed campaigns run on one worker.  On a 2-vCPU shared host two
   busy worker domains draw the hypervisor's throttling (steal rose from
   3% to 25-34% within a series of runs, and two workers finished fewer
   trials per second than one), so their times measure the host.  The
   two-worker campaign runs once, in the traced run, for the Exec.Pool
   fan-out metrics and the one-vs-two-worker identity check. *)

let ids = List.init 18 (fun i -> Printf.sprintf "fig%d" (i + 1)) @ [ "table2" ]
let jobs = 1
let fan_out = 2
let setups = 3
let trials (c : Cfg.t) = if c.tiny then 1 else 50

(* Trials one campaign runs per trial-per-point: the figure set's
   points, summed.  The traced run checks it against the pool's own
   trial counter. *)
let points = 176

(* Clock readings around one figure: start, computed, rendered. *)
type timing = { id : string; t0 : int64; t1 : int64; t2 : int64 }

let secs a b = Int64.to_float (Int64.sub b a) /. 1e9
let run_s t = secs t.t0 t.t1
let render_s t = secs t.t1 t.t2

(* One campaign: every figure, rendered; returns the digest of the
   rendered text.  [on_id] sees the time each figure took to compute
   and render. *)
let campaign ?(on_id = fun _ -> ()) ~seed ~jobs ~trials () =
  let config = { Experiments.Runner.default_config with trials; seed; jobs } in
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun id ->
      let t0 = Host.now_ns () in
      let figs = Experiments.Figures.run ~config id in
      let t1 = Host.now_ns () in
      List.iter (fun f -> Buffer.add_string b (Experiments.Report.render f); Buffer.add_char b '\n') figs;
      on_id { id; t0; t1; t2 = Host.now_ns () })
    ids;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Stored digests: one "trials seed md5" line each. *)
let stored (c : Cfg.t) =
  let want = trials c in
  match In_channel.with_open_text c.digests In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ t; s; d ] when int_of_string_opt t = Some want && int_of_string_opt s = Some c.seed ->
          Some d
        | _ -> None)
      (String.split_on_char '\n' text)

let flip d = String.mapi (fun i ch -> if i = 0 then (if ch = '0' then '1' else '0') else ch) d

(* Digest checks: every campaign of the run agrees with the stored
   digest.  For a seed with no stored digest, the one-worker campaign
   [fallback] stands in for it. *)
let digest_checks (c : Cfg.t) ~fallback digests =
  let digests = if Cfg.injected c "flip-digest" then List.mapi (fun i d -> if i = 0 then flip d else d) digests else digests in
  let reference, source =
    match stored c with
    | Some d -> (d, "stored")
    | None -> (fallback (), "one-worker")
  in
  List.mapi
    (fun i d -> (d = reference, Printf.sprintf "campaign %d digest %s, %s digest %s" i d source reference))
    digests

(* Timed campaigns until [secs] have passed (at least one). *)
let campaigns (c : Cfg.t) secs =
  let stop = Host.for_seconds secs in
  let rec go acc =
    let t0 = Host.now_ns () in
    let d = campaign ~seed:c.seed ~jobs ~trials:(trials c) () in
    let acc = (Host.s_since t0, d) :: acc in
    if stop () then List.rev acc else go acc
  in
  go []

(* Set-up: a warm-up pass over every figure at one trial per point, so
   lazy tables and code paths are warm before timing. *)
let warm_up (c : Cfg.t) =
  let t0 = Host.now_ns () in
  ignore (campaign ~seed:c.seed ~jobs ~trials:1 () : string);
  Host.s_since t0

let e2e (c : Cfg.t) =
  let setup = Array.init setups (fun _ -> warm_up c) in
  let runs = campaigns c c.seconds in
  let secs = Array.of_list (List.map fst runs) in
  let per_campaign = points * trials c in
  let attempted = per_campaign * List.length runs in
  Out.make
    ~checks:
      (digest_checks c (List.map snd runs) ~fallback:(fun () ->
           campaign ~seed:c.seed ~jobs:1 ~trials:(trials c) ()))
    ~attempted ~failed:0
    ~metrics:
      [
        Out.metric "setup_s" "s" (Host.median setup);
        Out.metric "throughput_per_s" "1/s" (float_of_int per_campaign /. Host.median secs);
        Out.metric "latency_p50_ms" "ms" (1e3 *. Host.quantile secs 0.5);
        Out.metric "latency_p99_ms" "ms" (1e3 *. Host.quantile secs 0.99);
        Out.metric "peak_rss_mb" "MB" (Host.peak_rss_mb 0);
      ]
    ~samples:
      [
        ("setup_s", setups);
        ("throughput_per_s", Array.length secs);
        ("latency_p50_ms", Array.length secs);
        ("latency_p99_ms", Array.length secs);
      ]
    ~notes:
      [
        "latency is per figure campaign; with fewer than 1000 campaigns p99 is the slowest one";
      ]

(* The six fig1 heuristics, each timed on fresh fig1-style instances
   (NPB-SYNTH, n = 256, paper platform); median us per run. *)
let heuristics (c : Cfg.t) =
  let reps = if c.tiny then 3 else 40 in
  let rng = Util.Rng.create c.seed in
  let platform = Model.Platform.paper_default in
  let instances = Array.init reps (fun _ -> Model.Workload.generate ~rng Model.Workload.NpbSynth 256) in
  List.map
    (fun policy ->
      let times =
        Array.map
          (fun apps ->
            let rng = Util.Rng.create c.seed in
            let t0 = Host.now_ns () in
            ignore (Sched.Heuristics.makespan ~rng ~platform ~apps policy : float);
            Host.us_since t0)
          instances
      in
      Out.metric ("sched.heuristics.run_us." ^ Sched.Heuristics.name policy) "us" (Host.median times))
    Sched.Heuristics.dominant_heuristics

let traced (c : Cfg.t) =
  ignore (warm_up c : float);
  (* Pass A, untraced: the reference campaign time. *)
  let runs = campaigns c (c.seconds /. 2.) in
  let untraced = Host.median (Array.of_list (List.map fst runs)) in
  (* Pass B, traced: library counters and spans on, one benchmark span
     per figure under one campaign span. *)
  let spans = Spans.create 256 in
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Obs.Probe.enable ();
  let timings = ref [] in
  let t0 = Host.now_ns () in
  let root_t0 = Spans.us_of_ns t0 in
  let digest_b = campaign ~seed:c.seed ~jobs ~trials:(trials c) ~on_id:(fun t -> timings := t :: !timings) () in
  let wall = Host.s_since t0 in
  Obs.Probe.disable ();
  let root = Spans.add spans ~name:"experiments.campaign" ~t0:root_t0 ~t1:(root_t0 +. (wall *. 1e6)) () in
  let timings = List.rev !timings in
  List.iter
    (fun t ->
      let span name a b =
        ignore (Spans.add spans ~name ~parent:root ~t0:(Spans.us_of_ns a) ~t1:(Spans.us_of_ns b) () : int)
      in
      span ("experiments." ^ t.id) t.t0 t.t1;
      span "experiments.render" t.t1 t.t2)
    timings;
  let run_of p = List.fold_left (fun a t -> if p t.id then a +. run_s t else a) 0. timings in
  let render_s = List.fold_left (fun a t -> a +. render_s t) 0. timings in
  let trial_us = Obs.Metrics.histogram "pool.trial_us" in
  let evals = Obs.Metrics.histogram "equalize.evals" in
  let trials_run = Host.counter "pool.trials" in
  let expected_trials = points * trials c in
  let lib = Obs.Span.events () in
  let layer =
    [
      Out.metric "campaign.trial_us_p50" "us" (Obs.Metrics.quantile trial_us 0.5);
      Out.metric "campaign.trial_us_p99" "us" (Obs.Metrics.quantile trial_us 0.99);
      Out.metric "campaign.trials" "count" (float_of_int trials_run);
      Out.metric "sched.equalize.solves_per_trial" "count"
        (float_of_int (Host.counter "equalize.solves") /. float_of_int (max 1 trials_run));
      Out.metric "equalize.evals_per_solve" "count" (Obs.Metrics.hist_sum evals /. float_of_int (max 1 (Obs.Metrics.hist_count evals)));
    ]
  in
  let trial_samples = Obs.Metrics.hist_count trial_us in
  (* The two-worker campaign: the pool's fan-out, and output must not
     depend on the pool size. *)
  Obs.Metrics.reset ();
  Obs.Probe.enable ();
  let t0 = Host.now_ns () in
  let two_workers = campaign ~seed:c.seed ~jobs:fan_out ~trials:(trials c) () in
  let wall_2 = Host.s_since t0 in
  Obs.Probe.disable ();
  let digest_2 = if Cfg.injected c "jobs-mismatch" then flip two_workers else two_workers in
  let checks =
    digest_checks c (List.map snd runs @ [ digest_b ]) ~fallback:(fun () -> digest_b)
    @ [
        (digest_b = digest_2, Printf.sprintf "one-worker digest %s, two-worker digest %s" digest_b digest_2);
        ( trials_run = expected_trials,
          Printf.sprintf "pool ran %d trials, the figure set has %d" trials_run expected_trials );
      ]
  in
  let metrics =
    [
      Out.metric "experiments.fig1_s" "s" (run_of (( = ) "fig1"));
      Out.metric "experiments.other_figures_s" "s" (run_of (fun id -> id <> "fig1" && id <> "table2"));
      Out.metric "cachesim.table2_s" "s" (run_of (( = ) "table2"));
      Out.metric "experiments.render_ms" "ms" (1e3 *. render_s);
    ]
    @ layer
    @ [
      Out.metric "exec.pool.idle_waits" "count" (float_of_int (Host.counter "exec.pool.idle_waits"));
      Out.metric "exec.parallel_efficiency" "ratio"
        (Obs.Metrics.hist_sum trial_us /. (wall_2 *. 1e6 *. float_of_int fan_out));
      Out.metric "trace.overhead_pct" "%" (100. *. ((wall /. untraced) -. 1.));
      Out.metric "trace.layer_sum_ratio" "ratio" ((run_of (fun _ -> true) +. render_s) /. wall);
    ]
    @ heuristics c
  in
  ( Out.make ~checks ~attempted:(expected_trials * (List.length runs + 2)) ~failed:0 ~metrics
      ~samples:
        [
          ("campaign.trial_us_p50", trial_samples);
          ("campaign.trial_us_p99", trial_samples);
        ]
      ~notes:[],
    spans,
    lib )
