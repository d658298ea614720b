(* Command-line interface.

   Subcommands:
     experiment  — regenerate a paper table/figure (or all of them)
     schedule    — run one policy on a generated instance and print it
     exact       — certify an instance with the branch-and-bound solver
     cachesim    — calibrate a synthetic NPB-like kernel's power law
     validate    — replay a schedule in the discrete-event simulator
     online      — serve a Poisson application stream event-by-event
     instance    — print a generated instance's application parameters
     serve       — run the co-scheduling daemon on a Unix socket
     client      — talk to a running daemon
     journal     — inspect/validate a daemon journal or snapshot file *)

open Cmdliner

(* Converters that reject out-of-range values at parse time, naming the
   offending flag — a bad --trials or --jobs must die with a usage error,
   not a backtrace three layers down. *)
let pos_int ~flag =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "--%s must be >= 1, got %d" flag v))
    | None -> Error (`Msg (Printf.sprintf "--%s expects an integer, got %s" flag s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int ~flag =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "--%s must be >= 0, got %d" flag v))
    | None -> Error (`Msg (Printf.sprintf "--%s expects an integer, got %s" flag s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float ~flag =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0. && Float.is_finite v -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "--%s must be positive, got %g" flag v))
    | None -> Error (`Msg (Printf.sprintf "--%s expects a number, got %s" flag s))
  in
  Arg.conv (parse, Format.pp_print_float)

let nonneg_float ~flag =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0. && Float.is_finite v -> Ok v
    | Some v ->
      Error (`Msg (Printf.sprintf "--%s must be >= 0 and finite, got %g" flag v))
    | None -> Error (`Msg (Printf.sprintf "--%s expects a number, got %s" flag s))
  in
  Arg.conv (parse, Format.pp_print_float)

let port_conv ~flag =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 && v <= 65535 -> Ok v
    | Some v ->
      Error (`Msg (Printf.sprintf "--%s must be a port in 1..65535, got %d" flag v))
    | None -> Error (`Msg (Printf.sprintf "--%s expects a port number, got %s" flag s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --- observability ----------------------------------------------------- *)

(* Every subcommand accepts --trace and --metrics; both route through
   Obs.Report so semantics match bench/main exactly: requesting either
   enables probes for the run, and the outputs are produced at exit. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record tracing spans and write them to FILE as Chrome \
           trace-event JSON (open in chrome://tracing or Perfetto).")

let metrics_arg =
  let parse s =
    try Ok (Obs.Report.format_of_string s)
    with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf f = Format.pp_print_string ppf (Obs.Report.format_name f) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print an end-of-run metrics report: $(b,text) (aligned table), \
           $(b,prom) (Prometheus text exposition) or $(b,json).")

(* Run a subcommand body under the requested observability outputs.  The
   trace is validated and written (and the metrics report printed) even
   when the body raises, so a failed run still leaves its evidence. *)
let with_obs trace metrics f =
  ignore (Obs.Report.configure ?trace ?metrics () : bool);
  Fun.protect ~finally:(fun () -> Obs.Report.finish ?trace ?metrics ()) f

(* A start-up step that fails on an unusable file path ends the run
   with one line naming it and exit code 2 instead of a backtrace: a
   --journal or --snapshot into a missing directory is refused before
   any trial runs or any socket is bound (Journal.create and
   Backend.create check both).  Once [ready] is set, I/O faults keep
   their backtrace. *)
let or_exit ?(ready = ref false) cmd f =
  try f ()
  with Sys_error m when not !ready ->
    Printf.eprintf "cosched %s: %s\n" cmd m;
    exit 2

let seed_arg =
  Arg.(value & opt int 2017 & info [ "seed" ] ~docv:"SEED" ~doc:"Master RNG seed.")

let trials_arg =
  Arg.(
    value
    & opt (pos_int ~flag:"trials") 50
    & info [ "trials" ] ~docv:"N" ~doc:"Repetitions per sweep point (paper: 50).")

let jobs_arg =
  Arg.(
    value
    & opt (nonneg_int ~flag:"jobs") 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for trial execution: 1 runs sequentially (the \
           default, byte-identical to historical output), 0 uses one \
           domain per core.  Results are bit-identical for every value.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append-only JSONL checkpoint of completed trials.  Re-running \
           an interrupted campaign with the same file skips every trial \
           already journalled.")

let on_failure_arg =
  Arg.(
    value
    & opt (enum [ ("abort", `Abort); ("skip", `Skip); ("retry", `Retry) ]) `Abort
    & info [ "on-failure" ] ~docv:"POLICY"
        ~doc:
          "What to do when a trial raises: $(b,abort) fails the whole \
           campaign (default), $(b,skip) records the trial as a hole and \
           keeps going, $(b,retry) re-runs it up to $(b,--max-retries) \
           times with deterministic backoff before skipping.")

let max_retries_arg =
  Arg.(
    value
    & opt (nonneg_int ~flag:"max-retries") 2
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Retry budget per trial under $(b,--on-failure retry).")

let trial_timeout_arg =
  Arg.(
    value
    & opt (some (pos_float ~flag:"trial-timeout")) None
    & info [ "trial-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Cooperative per-trial deadline: a trial still running after \
           this many seconds fails with a timeout at its next safepoint \
           and is handled by the $(b,--on-failure) policy.")

let dataset_arg =
  let parse s =
    try Ok (Model.Workload.dataset_of_string s)
    with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf d = Format.pp_print_string ppf (Model.Workload.dataset_name d) in
  Arg.(
    value
    & opt (conv (parse, print)) Model.Workload.NpbSynth
    & info [ "dataset" ] ~docv:"DS" ~doc:"Data set: npb6, npb-synth or random.")

let napps_arg =
  Arg.(
    value
    & opt (pos_int ~flag:"apps") 16
    & info [ "n"; "apps" ] ~docv:"N" ~doc:"Number of applications.")

let procs_arg =
  Arg.(
    value
    & opt (pos_float ~flag:"procs") 256.
    & info [ "p"; "procs" ] ~docv:"P" ~doc:"Processor count.")

let cs_arg =
  Arg.(
    value
    & opt (pos_float ~flag:"cache-size") 32e9
    & info [ "cs"; "cache-size" ] ~docv:"BYTES" ~doc:"Shared LLC size in bytes.")

let policy_arg =
  let parse s =
    try Ok (Sched.Heuristics.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf p = Format.pp_print_string ppf (Sched.Heuristics.name p) in
  Arg.(
    value
    & opt (conv (parse, print)) Sched.Heuristics.dominant_min_ratio
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Co-scheduling policy: DominantMinRatio, DominantRevMaxRatio, ... \
           AllProcCache, Fair, 0cache, RandomPart.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"CSV"
        ~doc:
          "Load the applications from a CSV instance file (see \
           Model.Instance_io) instead of generating them.")

let platform_of ~procs ~cs = Model.Platform.make ~p:procs ~cs ()

let make_instance ?file ~seed ~dataset ~napps ~procs ~cs () =
  let rng = Util.Rng.create seed in
  let platform = platform_of ~procs ~cs in
  let apps =
    match file with
    | Some path -> Model.Instance_io.load path
    | None -> Model.Workload.generate ~rng dataset napps
  in
  (rng, platform, apps)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let id_arg =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"ID"
          ~doc:"Experiment id (fig1..fig18, table2, optgap, alpha, \
                validation, rounding, integer, speedup, ucp, profiles, \
                tracedriven) or 'all'.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write <id>.dat and <id>.gp gnuplot files into DIR.")
  in
  let write_file path contents =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
  in
  let run id trials seed jobs journal on_failure max_retries trial_timeout csv
      out trace metrics =
    let ready = ref false in
    or_exit ~ready "experiment" @@ fun () ->
    with_obs trace metrics @@ fun () ->
    (* One journal handle serves every campaign of the run; opening it
       under the probes counts its quarantined lines in --metrics. *)
    let journal = Option.map (fun path -> Campaign.Journal.create ~path) journal in
    ready := true;
    let config =
      {
        Experiments.Runner.trials;
        seed;
        jobs;
        journal;
        on_failure;
        max_retries;
        trial_timeout;
        fault = None;
      }
    in
    let ids =
      if String.lowercase_ascii id = "all" then Experiments.Figures.all_ids
      else [ id ]
    in
    List.iter
      (fun id ->
        List.iter
          (fun fig ->
            if csv then print_string (Experiments.Report.to_csv fig)
            else print_string (Experiments.Report.render fig ^ "\n");
            match out with
            | None -> ()
            | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let fig_id = fig.Experiments.Report.id in
              let dat = Filename.concat dir (fig_id ^ ".dat") in
              write_file dat (Experiments.Report.to_dat fig);
              write_file
                (Filename.concat dir (fig_id ^ ".gp"))
                (Experiments.Report.to_gnuplot ~datfile:(fig_id ^ ".dat") fig))
          (Experiments.Figures.run ~config id))
      ids
  in
  let term =
    Term.(
      const run $ id_arg $ trials_arg $ seed_arg $ jobs_arg $ journal_arg
      $ on_failure_arg $ max_retries_arg $ trial_timeout_arg $ csv_arg
      $ out_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table/figure of the paper.")
    term

(* --- schedule --------------------------------------------------------- *)

let schedule_cmd =
  let run seed dataset napps procs cs policy file trace metrics =
    with_obs trace metrics @@ fun () ->
    let rng, platform, apps =
      make_instance ?file ~seed ~dataset ~napps ~procs ~cs ()
    in
    let result = Sched.Heuristics.run ~rng ~platform ~apps policy in
    (match result.Sched.Heuristics.schedule with
    | Some schedule -> Format.printf "%a@." Model.Schedule.pp schedule
    | None ->
      Format.printf
        "%s runs applications sequentially (no concurrent allocation).@."
        (Sched.Heuristics.name policy));
    Format.printf "policy   = %s@.makespan = %.6g@."
      (Sched.Heuristics.name policy)
      result.Sched.Heuristics.makespan;
    match result.Sched.Heuristics.cached with
    | Some subset ->
      Format.printf "cached   = {%s}@."
        (String.concat ", "
           (List.map
              (fun i -> apps.(i).Model.App.name)
              (Theory.Dominant.indices subset)))
    | None -> ()
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ napps_arg $ procs_arg $ cs_arg
      $ policy_arg $ file_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Run one co-scheduling policy on a generated instance.")
    term

(* --- exact ------------------------------------------------------------- *)

let exact_cmd =
  let order_arg =
    let parse s =
      try Ok (Theory.Bnb.order_of_string s)
      with Invalid_argument m -> Error (`Msg m)
    in
    let print ppf o = Format.pp_print_string ppf (Theory.Bnb.order_name o) in
    Arg.(
      value
      & opt (conv (parse, print)) Theory.Bnb.Best
      & info [ "order" ] ~docv:"ORDER"
          ~doc:"Node order: $(b,best) (best-first on the lower bound, the \
                default) or $(b,dfs) (bounded-stack depth-first).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"budget") Theory.Bnb.default_budget.Theory.Bnb.max_nodes
      & info [ "budget" ] ~docv:"NODES"
          ~doc:"Node budget: the search stops with a $(b,budget-exhausted) \
                verdict after expanding this many nodes.")
  in
  let seconds_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"seconds") Theory.Bnb.default_budget.Theory.Bnb.max_seconds
      & info [ "seconds" ] ~docv:"S" ~doc:"Wall-clock budget in seconds.")
  in
  let max_n_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"max-n") 62
      & info [ "max-n" ] ~docv:"N"
          ~doc:"Refuse instances larger than N applications (the subset \
                masks cap the solver at 62).")
  in
  let exact_jobs_arg =
    Arg.(
      value
      & opt (nonneg_int ~flag:"jobs") 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel subtree exploration: 1 searches \
             sequentially (the default), 0 uses one domain per core.  The \
             certified optimum is identical for every value.")
  in
  let run seed dataset napps procs cs file order budget seconds max_n jobs
      trace metrics =
    with_obs trace metrics @@ fun () ->
    let rng, platform, apps =
      make_instance ?file ~seed ~dataset ~napps ~procs ~cs ()
    in
    (* The certificate is for the Lemma 3 objective, which assumes
       perfectly parallel applications; force s = 0 so the heuristic
       makespans are measured against the same objective. *)
    let apps = Array.map (fun a -> Model.App.with_s a 0.) apps in
    let budget = { Theory.Bnb.max_nodes = budget; max_seconds = seconds } in
    let solve pool =
      Sched.Certify.gaps ~order ~budget ?pool ~max_n ~rng ~platform ~apps ()
    in
    let result, gaps =
      if jobs = 1 then solve None
      else
        Exec.Pool.with_pool ~jobs (fun pool ->
            solve (if Exec.Pool.size pool = 0 then None else Some pool))
    in
    let table = Util.Table.create [ "policy"; "makespan"; "ratio to optimum" ] in
    List.iter
      (fun (g : Sched.Certify.gap) ->
        Util.Table.add_row table
          [
            Sched.Heuristics.name g.Sched.Certify.policy;
            Printf.sprintf "%.6g" g.Sched.Certify.makespan;
            Printf.sprintf "%.6f" g.Sched.Certify.ratio;
          ])
      gaps;
    Util.Table.print table;
    let stats = result.Theory.Bnb.stats in
    Printf.printf "verdict     = %s\n"
      (Theory.Bnb.verdict_name result.Theory.Bnb.verdict);
    Printf.printf "%s = %.6g\n"
      (match result.Theory.Bnb.verdict with
      | Theory.Bnb.Certified -> "optimum    "
      | Theory.Bnb.Budget_exhausted -> "incumbent  ")
      result.Theory.Bnb.makespan;
    Printf.printf "lower bound = %.6g (gap %.3g)\n"
      result.Theory.Bnb.lower_bound
      (result.Theory.Bnb.makespan /. result.Theory.Bnb.lower_bound -. 1.);
    Printf.printf "cached      = {%s}\n"
      (String.concat ", "
         (List.map
            (fun i -> apps.(i).Model.App.name)
            (Theory.Dominant.indices result.Theory.Bnb.subset)));
    Printf.printf "nodes=%d pruned=%d leaves=%d incumbent updates=%d\n"
      stats.Theory.Bnb.nodes stats.Theory.Bnb.pruned stats.Theory.Bnb.leaves
      stats.Theory.Bnb.incumbent_updates
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ napps_arg $ procs_arg $ cs_arg
      $ file_arg $ order_arg $ budget_arg $ seconds_arg $ max_n_arg
      $ exact_jobs_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:
         "Certify an instance: branch-and-bound exact solver with the \
          heuristics as incumbent seeds, reporting each policy's \
          optimality gap and a certified-vs-budget-exhausted verdict.")
    term

(* --- cachesim ---------------------------------------------------------- *)

let cachesim_cmd =
  let kernel_arg =
    Arg.(
      value
      & opt string "CG"
      & info [ "kernel" ] ~docv:"NAME" ~doc:"Kernel: CG, BT, LU, SP, MG or FT.")
  in
  let scale_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"scale") 2048
      & info [ "scale" ] ~docv:"BLOCKS" ~doc:"Footprint scale.")
  in
  let length_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"length") 200_000
      & info [ "length" ] ~docv:"N" ~doc:"Trace length.")
  in
  let run seed kernel scale length trace metrics =
    with_obs trace metrics @@ fun () ->
    let rng = Util.Rng.create seed in
    let cal = Cachesim.Kernels.calibrate_kernel ~rng ~scale ~length kernel in
    let table = Util.Table.create [ "capacity(blocks)"; "miss rate" ] in
    Array.iter
      (fun (c, m) ->
        Util.Table.add_row table [ string_of_int c; Printf.sprintf "%.5f" m ])
      cal.Cachesim.Miss_curve.curve.Cachesim.Miss_curve.points;
    Util.Table.print table;
    let fit = cal.Cachesim.Miss_curve.fit in
    Printf.printf
      "power-law fit: m0 = %.4g at %d blocks, alpha = %.3f, R^2 = %.3f\n"
      fit.Util.Regress.m0 cal.Cachesim.Miss_curve.c0_blocks
      fit.Util.Regress.alpha fit.Util.Regress.r2
  in
  let term =
    Term.(
      const run $ seed_arg $ kernel_arg $ scale_arg $ length_arg $ trace_arg
      $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "cachesim"
       ~doc:"Calibrate a synthetic kernel's miss-rate power law.")
    term

(* --- validate ---------------------------------------------------------- *)

let validate_cmd =
  let redistribute_arg =
    Arg.(
      value & flag
      & info [ "redistribute" ]
          ~doc:"Work-conserving mode: survivors inherit freed processors and \
                cache.")
  in
  let run seed dataset napps procs cs policy redistribute file trace metrics =
    with_obs trace metrics @@ fun () ->
    let rng, platform, apps =
      make_instance ?file ~seed ~dataset ~napps ~procs ~cs ()
    in
    let result = Sched.Heuristics.run ~rng ~platform ~apps policy in
    match result.Sched.Heuristics.schedule with
    | None -> prerr_endline "policy has no concurrent schedule to replay"
    | Some schedule ->
      let options =
        {
          Simulator.Coschedule_sim.default_options with
          redistribute_procs = redistribute;
          redistribute_cache = redistribute;
        }
      in
      let outcome = Simulator.Coschedule_sim.run ~options schedule in
      Printf.printf "analytic makespan  = %.6g\n"
        (Model.Schedule.makespan schedule);
      Printf.printf "simulated makespan = %.6g\n"
        outcome.Simulator.Coschedule_sim.makespan;
      Printf.printf "max model error    = %.3g\n"
        (Simulator.Coschedule_sim.model_error schedule)
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ napps_arg $ procs_arg $ cs_arg
      $ policy_arg $ redistribute_arg $ file_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Replay a policy's schedule in the discrete-event simulator.")
    term

(* --- online ------------------------------------------------------------ *)

(* Named-spec converters: the heavy-tailed workload flags, shared by
   `online` (stream generation) and `client storm` (wire submission), and
   the re-solve policy of `online` and `serve`. *)
let scenario_conv =
  let parse s =
    try Ok (Stats.Scenario.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf sc = Format.pp_print_string ppf (Stats.Scenario.to_string sc) in
  Arg.conv (parse, print)

let dist_conv =
  let parse s =
    try Ok (Stats.Dist.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf d = Format.pp_print_string ppf (Stats.Dist.to_string d) in
  Arg.conv (parse, print)

let policy_conv =
  let parse s =
    try Ok (Online.Policy.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf p = Format.pp_print_string ppf (Online.Policy.name p) in
  Arg.conv (parse, print)

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Assert processor and cache conservation after every event.")

let online_cmd =
  let online_policy_arg =
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Re-solve policy: $(b,every-event), $(b,batched:K) or \
             $(b,threshold:EPS).  Omit to run all three defaults.")
  in
  let load_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"load") 4.
      & info [ "load" ] ~docv:"L"
          ~doc:
            "Target offered load: the arrival rate keeps about L jobs in \
             flight if each ran alone on the full platform.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit metrics as one JSON object per policy.")
  in
  let online_jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for sharded re-solve passes (0 = all cores).  \
             Allocations are bit-identical to the sequential path whatever \
             N; the shards only buy wall-clock on large live sets.")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt (some scenario_conv) None
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Arrival process instead of $(b,--load): a renewal distribution \
             ($(b,poisson:rate=4), $(b,pareto:a=1.5,xm=0.2), \
             $(b,lognormal:mu=0,sigma=1), $(b,weibull:k=0.7,scale=1), \
             $(b,hyperexp:p=0.9,mean1=0.5,mean2=8)), a flash crowd \
             ($(b,flash:base=2,burst=20,every=50,a=1.5,xm=2)) or a diurnal \
             cycle ($(b,diurnal:rate=4,amp=0.8,period=200)).  Rates are in \
             jobs per mean alone-time, so $(b,poisson:rate=4) matches \
             $(b,--load 4).")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (some dist_conv) None
      & info [ "sizes" ] ~docv:"SPEC"
          ~doc:
            "Heavy-tailed job sizes: override each generated application's \
             work with a draw from SPEC, in operations (the NPB-SYNTH range \
             is 1e8..1e12, so e.g. $(b,pareto:a=1.1,xm=1e9)).")
  in
  let run seed dataset napps procs cs load arrivals sizes policy check json
      jobs trace metrics =
    with_obs trace metrics @@ fun () ->
    let rng = Util.Rng.create seed in
    let platform = platform_of ~procs ~cs in
    let jobs = if jobs = 0 then Exec.Pool.default_jobs () else jobs in
    let stream =
      match (arrivals, sizes) with
      | None, None ->
        Online.Workload_stream.poisson_load ~rng ~platform ~load ~dataset napps
      | scenario, _ ->
        (* --sizes without --arrivals keeps the Poisson process at the
           requested load; only the job-size marginal changes. *)
        let scenario =
          Option.value scenario
            ~default:
              (Stats.Scenario.Renewal (Stats.Dist.Exponential { rate = load }))
        in
        Online.Workload_stream.scenario_load ~rng ~platform ?sizes ~scenario
          ~dataset napps
    in
    let policies =
      match policy with Some p -> [ p ] | None -> Online.Policy.defaults
    in
    Exec.Pool.with_pool ~jobs @@ fun pool ->
    let pool = if Exec.Pool.size pool = 0 then None else Some pool in
    List.iter
      (fun policy ->
        let config =
          { Online.Service.default_config with policy; validate = check }
        in
        let report = Online.Service.run ~config ?pool ~platform stream in
        let metrics = report.Online.Service.metrics in
        if json then
          Printf.printf "{\"policy\":\"%s\",\"metrics\":%s}\n"
            (Online.Policy.name policy)
            (Online.Metrics.to_json metrics)
        else
          print_string
            (Online.Metrics.render ~label:(Online.Policy.name policy) metrics
            ^ "\n"))
      policies
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ napps_arg $ procs_arg $ cs_arg
      $ load_arg $ arrivals_arg $ sizes_arg $ online_policy_arg $ check_arg
      $ json_arg $ online_jobs_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Serve a stream of applications with the event-driven online \
          co-scheduler: Poisson by default, or heavy-tailed / flash-crowd / \
          diurnal arrivals via $(b,--arrivals) and $(b,--sizes).")
    term

(* --- instance ---------------------------------------------------------- *)

let instance_cmd =
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"CSV" ~doc:"Also write the instance to a CSV file.")
  in
  let run seed dataset napps procs cs save trace metrics =
    with_obs trace metrics @@ fun () ->
    let _, platform, apps = make_instance ~seed ~dataset ~napps ~procs ~cs () in
    (match save with
    | Some path -> Model.Instance_io.save path apps
    | None -> ());
    Format.printf "%a@." Model.Platform.pp platform;
    let table = Util.Table.create [ "name"; "w"; "s"; "f"; "m0@40MB"; "d_i" ] in
    Array.iter
      (fun (app : Model.App.t) ->
        Util.Table.add_row table
          [
            app.name;
            Printf.sprintf "%.4g" app.w;
            Printf.sprintf "%.4g" app.s;
            Printf.sprintf "%.4g" app.f;
            Printf.sprintf "%.4g" app.m0;
            Printf.sprintf "%.4g" (Model.Power_law.d_of ~app ~platform);
          ])
      apps;
    Util.Table.print table
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ napps_arg $ procs_arg $ cs_arg
      $ save_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "instance" ~doc:"Print a generated instance's parameters.")
    term

(* --- refine ------------------------------------------------------------ *)

let refine_cmd =
  let max_iter_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"max-iter") 200
      & info [ "max-iter" ] ~docv:"N" ~doc:"Fixed-point iteration cap.")
  in
  let tol_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"tol") 1e-10
      & info [ "tol" ] ~docv:"EPS"
          ~doc:"Relative makespan-change convergence tolerance.")
  in
  let run seed dataset napps procs cs file max_iter tol trace metrics =
    with_obs trace metrics @@ fun () ->
    let _rng, platform, apps =
      make_instance ?file ~seed ~dataset ~napps ~procs ~cs ()
    in
    let subset = Online.Incremental.cold_partition ~platform apps in
    let x0 = Theory.Dominant.cache_allocation_capped ~platform ~apps subset in
    let k0 = Sched.Equalize.solve_makespan ~platform ~apps x0 in
    let iters = ref 0 in
    let r = Sched.Refine.refine ~max_iter ~tol ~iters ~platform ~apps ~x0 () in
    Format.printf
      "base (Theorem 3 capped) makespan = %.6g@.refined makespan           \
       \ = %.6g@.improvement                 = %.4g%%@.fixed-point \
       iterations      = %d@.objective evaluations       = %d@."
      k0 r.Sched.Refine.makespan
      (100. *. r.Sched.Refine.improvement)
      r.Sched.Refine.iterations !iters;
    let table = Util.Table.create [ "name"; "x0"; "x_refined" ] in
    Array.iteri
      (fun i (app : Model.App.t) ->
        Util.Table.add_row table
          [
            app.name;
            Printf.sprintf "%.4g" x0.(i);
            Printf.sprintf "%.4g" r.Sched.Refine.x.(i);
          ])
      apps;
    Util.Table.print table
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ napps_arg $ procs_arg $ cs_arg
      $ file_arg $ max_iter_arg $ tol_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Refine the Theorem 3 cache allocation with the speedup-aware \
          gradient fixed point.")
    term

(* --- serve / client ----------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "cosched.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon.")

let port_arg =
  Arg.(
    value
    & opt (some (port_conv ~flag:"port")) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Loopback TCP port (in addition to, or instead of, the socket).")

let serve_cmd =
  let max_clients_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"max-clients") 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Connection admission limit: further connects receive one \
             $(b,overload) error frame and are closed.")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"queue-depth") 1024
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Backpressure bound: submissions beyond N live jobs are \
             refused with an $(b,overload) error.")
  in
  let drain_timeout_arg =
    Arg.(
      value
      & opt (some (pos_float ~flag:"drain-timeout")) None
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Cooperative deadline for drains (client $(b,drain) verb or \
             SIGTERM); unbounded when omitted.")
  in
  let client_timeout_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"client-timeout") 10.
      & info [ "client-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Drop a client whose connection stays write-blocked this long \
             (a slow subscriber must not stall the scheduler).")
  in
  let serve_policy_arg =
    Arg.(
      value
      & opt policy_conv Online.Policy.Every_event
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Re-solve policy: $(b,every-event), $(b,batched:K) or \
             $(b,threshold:EPS).")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the full live state to FILE and compact the journal \
             (requires $(b,--journal)).  Recovery prefers the newest valid \
             snapshot and replays only the journal tail past it.")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"snapshot-every") 256
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Journaled mutations between automatic snapshots (ignored \
             without $(b,--snapshot)).")
  in
  let snapshot_keep_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"snapshot-keep") Serve.Backend.default_config.snapshot_keep
      & info [ "snapshot-keep" ] ~docv:"N"
          ~doc:
            "Snapshot generations to keep on disk (FILE, FILE.1, ...).  \
             Recovery falls back generation by generation before resorting \
             to full journal replay; the journal retains every mutation \
             since the oldest kept checkpoint, one segment per generation \
             (JOURNAL, JOURNAL.1, ...).")
  in
  let deadline_ms_arg =
    Arg.(
      value
      & opt (some (pos_float ~flag:"deadline-ms")) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Cooperative wall-clock deadline per request (milliseconds, \
             beside the virtual model clock); exceeding it yields a \
             $(b,timeout) error reply.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt (some (pos_float ~flag:"idle-timeout")) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reap clients with no inbound activity for this long; quiet \
             clients stay alive with $(b,ping) heartbeats.")
  in
  let max_buffer_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"max-buffer") Serve.Session.default_max_out
      & info [ "max-buffer" ] ~docv:"BYTES"
          ~doc:
            "Per-client outbound buffer bound: slow subscribers lose push \
             frames past it, and a client whose response cannot be buffered \
             is evicted with an $(b,overload) notice.")
  in
  let shed_highwater_arg =
    Arg.(
      value
      & opt (nonneg_int ~flag:"shed-highwater") 0
      & info [ "shed-highwater" ] ~docv:"N"
          ~doc:
            "Enter load-shed mode at N live jobs: submits are rejected with \
             a structured $(b,overload) error carrying a retry-after hint \
             while queries, cancels and drains keep being served.  0 \
             disables shedding.")
  in
  let shed_lowwater_arg =
    Arg.(
      value
      & opt (nonneg_int ~flag:"shed-lowwater") 0
      & info [ "shed-lowwater" ] ~docv:"N"
          ~doc:
            "Leave load-shed mode once live jobs fall to N (defaults to \
             half the high-water mark; hysteresis against flapping).")
  in
  let run socket port max_clients queue_depth drain_timeout client_timeout
      journal snapshot snapshot_every snapshot_keep deadline_ms idle_timeout
      max_buffer shed_highwater shed_lowwater policy check procs cs trace
      metrics =
    let ready = ref false in
    or_exit ~ready "serve" @@ fun () ->
    with_obs trace metrics @@ fun () ->
    if snapshot <> None && journal = None then begin
      prerr_endline "cosched serve: --snapshot requires --journal";
      exit 2
    end;
    let shed_lowwater =
      if shed_highwater > 0 && shed_lowwater = 0 then max 1 (shed_highwater / 2)
      else shed_lowwater
    in
    if shed_highwater > 0 && shed_lowwater > shed_highwater then begin
      prerr_endline "cosched serve: --shed-lowwater must be <= --shed-highwater";
      exit 2
    end;
    let config =
      {
        Serve.Daemon.backend =
          {
            Serve.Backend.service =
              { Online.Service.default_config with policy; validate = check };
            platform = platform_of ~procs ~cs;
            queue_depth;
            journal;
            snapshot;
            snapshot_every;
            snapshot_keep;
            shed_highwater;
            shed_lowwater;
            shed_retry_after = Serve.Backend.default_config.shed_retry_after;
          };
        socket;
        port;
        max_clients;
        drain_timeout;
        client_timeout;
        request_deadline = Option.map (fun ms -> ms /. 1000.) deadline_ms;
        idle_timeout;
        max_buffer;
      }
    in
    Serve.Daemon.run
      ~on_ready:(fun () ->
        ready := true;
        Printf.printf "cosched serve: listening on %s%s\n%!" socket
          (match port with
          | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
          | None -> ""))
      config;
    print_endline "cosched serve: drained, exiting"
  in
  let term =
    Term.(
      const run $ socket_arg $ port_arg $ max_clients_arg $ queue_depth_arg
      $ drain_timeout_arg $ client_timeout_arg $ journal_arg $ snapshot_arg
      $ snapshot_every_arg $ snapshot_keep_arg $ deadline_ms_arg $ idle_timeout_arg
      $ max_buffer_arg $ shed_highwater_arg $ shed_lowwater_arg
      $ serve_policy_arg $ check_arg $ procs_arg $ cs_arg
      $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the co-scheduling daemon: submit/cancel/query/subscribe/drain \
          over a Unix-domain socket (journal-backed, crash-recoverable).")
    term

let client_cmd =
  let action_arg =
    Arg.(
      value
      & pos 0
          (enum
             [
               ("ping", `Ping); ("status", `Status); ("stats", `Stats);
               ("allocs", `Allocs); ("job", `Job); ("submit", `Submit);
               ("cancel", `Cancel); ("drain", `Drain); ("watch", `Watch);
               ("storm", `Storm);
             ])
          `Status
      & info [] ~docv:"ACTION"
          ~doc:
            "One of $(b,ping), $(b,status), $(b,stats), $(b,allocs), \
             $(b,job) ID, $(b,submit), $(b,cancel) ID, $(b,drain), \
             $(b,watch) (subscribe and print push events until the daemon \
             drains) or $(b,storm) (submit a scenario-timed stream, see \
             $(b,--arrivals)).")
  in
  let id_arg =
    Arg.(
      value
      & pos 1 (some int) None
      & info [] ~docv:"ID" ~doc:"Job id (for $(b,job) and $(b,cancel)).")
  in
  let at_arg =
    Arg.(
      value
      & opt (some (nonneg_float ~flag:"at")) None
      & info [ "at" ] ~docv:"TIME"
          ~doc:
            "Model time of the request.  The daemon's clock is virtual: it \
             advances only through these timestamps and drains.")
  in
  let name_arg =
    Arg.(
      value & opt string "app"
      & info [ "name" ] ~docv:"NAME" ~doc:"Submitted application name.")
  in
  let w_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"w") 1e12
      & info [ "w" ] ~docv:"OPS" ~doc:"Work (computing operations).")
  in
  let s_arg =
    Arg.(
      value
      & opt (nonneg_float ~flag:"s") 0.01
      & info [ "s" ] ~docv:"FRAC" ~doc:"Sequential fraction in [0, 1).")
  in
  let f_arg =
    Arg.(
      value
      & opt (nonneg_float ~flag:"f") 0.1
      & info [ "f" ] ~docv:"FREQ" ~doc:"Data accesses per operation.")
  in
  let m0_arg =
    Arg.(
      value
      & opt (nonneg_float ~flag:"m0") 0.01
      & info [ "m0" ] ~docv:"RATE" ~doc:"Miss rate at the baseline cache.")
  in
  let c0_arg =
    Arg.(
      value
      & opt (pos_float ~flag:"c0") 40e6
      & info [ "c0" ] ~docv:"BYTES" ~doc:"Baseline cache size for --m0.")
  in
  let footprint_arg =
    Arg.(
      value
      & opt (some (pos_float ~flag:"footprint")) None
      & info [ "footprint" ] ~docv:"BYTES"
          ~doc:"Memory footprint; omitted means larger than any cache.")
  in
  let sid_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sid" ] ~docv:"ID"
          ~doc:
            "Session id stamped into requests: resending a mutation under \
             the same session id and request id is deduplicated by the \
             daemon (exactly-once retries).")
  in
  let storm_arrivals_arg =
    Arg.(
      value
      & opt scenario_conv (Stats.Scenario.Renewal (Stats.Dist.Exponential { rate = 1. }))
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Arrival process for $(b,storm), in raw model-time units: e.g. \
             $(b,poisson:rate=1), $(b,pareto:a=1.5,xm=0.2) or \
             $(b,flash:base=2,burst=20,every=50,a=1.5,xm=2) (a flash crowd \
             is how to drive a shedding daemon into and out of overload).")
  in
  let storm_sizes_arg =
    Arg.(
      value
      & opt (some dist_conv) None
      & info [ "sizes" ] ~docv:"SPEC"
          ~doc:
            "Draw each storm job's work from SPEC (operations, e.g. \
             $(b,pareto:a=1.1,xm=1e9)) instead of the fixed $(b,--w).")
  in
  let count_arg =
    Arg.(
      value
      & opt (pos_int ~flag:"count") 50
      & info [ "count" ] ~docv:"N" ~doc:"Jobs submitted by $(b,storm).")
  in
  let run socket port sid action id at name w s f m0 c0 footprint seed
      arrivals sizes count trace metrics =
    let ok =
      with_obs trace metrics @@ fun () ->
      let conn =
        match port with
        | Some p -> Serve.Client.connect_tcp ?sid ~port:p ()
        | None -> Serve.Client.connect ?sid socket
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close conn) @@ fun () ->
      let need_id what =
        match id with
        | Some id -> id
        | None ->
          prerr_endline ("cosched client: " ^ what ^ " needs a job ID");
          exit 2
      in
      let request verb =
        let resp = Serve.Client.request conn ?at verb in
        print_endline (Serve.Protocol.encode_response resp);
        match resp.Serve.Protocol.reply with
        | Serve.Protocol.R_error _ -> false
        | _ -> true
      in
      match action with
      | `Ping -> request Serve.Protocol.Ping
      | `Status -> request Serve.Protocol.(Query Status)
      | `Stats -> request Serve.Protocol.(Query Stats)
      | `Allocs -> request Serve.Protocol.(Query Allocs)
      | `Job -> request Serve.Protocol.(Query (Job (need_id "job")))
      | `Cancel -> request (Serve.Protocol.Cancel (need_id "cancel"))
      | `Drain -> request Serve.Protocol.Drain
      | `Submit ->
        request
          (Serve.Protocol.Submit
             {
               Serve.Protocol.name; w; s; f; m0; c0;
               footprint = Option.value ~default:infinity footprint;
             })
      | `Watch -> (
        let resp = Serve.Client.request conn ?at (Serve.Protocol.Subscribe true) in
        print_endline (Serve.Protocol.encode_response resp);
        try
          let continue = ref true in
          while !continue do
            let push = Serve.Client.wait_push conn in
            print_endline (Serve.Protocol.encode_push push);
            match push with
            | Serve.Protocol.P_drained _ -> continue := false
            | _ -> ()
          done;
          true
        with Serve.Client.Error _ -> true (* daemon exited; watch is done *))
      | `Storm ->
        (* A seeded scenario-timed submit stream: arrival instants become
           request timestamps, so the daemon's virtual clock replays the
           storm deterministically.  Overload rejections are the expected
           behaviour of a shedding daemon under a burst — counted, not
           fatal. *)
        let rng = Util.Rng.create seed in
        let times = Stats.Scenario.arrival_times ~rng arrivals count in
        let submitted = ref 0 and shed = ref 0 and failed = ref 0 in
        Array.iteri
          (fun i at ->
            let w =
              match sizes with
              | None -> w
              | Some d -> Stats.Dist.sample d rng
            in
            let resp =
              Serve.Client.request conn ~at
                (Serve.Protocol.Submit
                   {
                     Serve.Protocol.name = Printf.sprintf "%s-%d" name i;
                     w; s; f; m0; c0;
                     footprint = Option.value ~default:infinity footprint;
                   })
            in
            match resp.Serve.Protocol.reply with
            | Serve.Protocol.R_submitted _ -> incr submitted
            | Serve.Protocol.R_error
                { code = Serve.Protocol.Overload; _ } -> incr shed
            | _ -> incr failed)
          times;
        Printf.printf
          "storm: arrivals=%s jobs=%d submitted=%d shed=%d failed=%d \
           horizon=%.6g\n"
          (Stats.Scenario.to_string arrivals)
          count !submitted !shed !failed
          (if Array.length times = 0 then 0.
           else times.(Array.length times - 1));
        !failed = 0
    in
    if not ok then exit 1
  in
  let term =
    Term.(
      const run $ socket_arg $ port_arg $ sid_arg $ action_arg $ id_arg
      $ at_arg $ name_arg $ w_arg $ s_arg $ f_arg $ m0_arg $ c0_arg
      $ footprint_arg $ seed_arg $ storm_arrivals_arg $ storm_sizes_arg
      $ count_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running co-scheduling daemon and print the \
          JSON response.")
    term

(* --- journal / snapshot inspection -------------------------------------- *)

let journal_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Journal or snapshot file to inspect.")
  in
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("journal", `Journal); ("snapshot", `Snapshot) ]) `Auto
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "What FILE is: $(b,journal), $(b,snapshot), or $(b,auto) \
             (sniff the file's first bytes).")
  in
  let no_replay_arg =
    Arg.(
      value & flag
      & info [ "no-replay" ]
          ~doc:
            "Skip replaying the journal through a recovery backend (the \
             live-job summary needs a replay; counts and the torn-tail \
             report do not).")
  in
  (* A binary snapshot starts with [Snapshot.magic], a format-1 one
     with its JSON prefix; anything else is read as a journal. *)
  let sniff file =
    match Serve.Snapshot.file_format ~path:file with
    | Some _ -> `Snapshot
    | None -> `Journal
  in
  let copy_file src dst =
    let ic = open_in_bin src in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let oc = open_out_bin dst in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    let buf = Bytes.create 65536 in
    let rec go () =
      match input ic buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
        output oc buf 0 n;
        go ()
    in
    go ()
  in
  let inspect_snapshot file =
    match Serve.Snapshot.validate ~path:file with
    | Error m ->
      Printf.printf "snapshot %s: INVALID — %s\n" file m;
      false
    | Ok s ->
      let p = s.Serve.Snapshot.persist in
      Printf.printf "snapshot %s: valid (format %d)\n" file
        (Option.value ~default:0 (Serve.Snapshot.file_format ~path:file));
      Printf.printf "  watermark seq   = %d\n" s.Serve.Snapshot.seq;
      Printf.printf "  model time      = %.6g\n" p.Online.Service.p_time;
      Printf.printf "  live jobs       = %d\n" (List.length p.p_jobs);
      Printf.printf "  completed       = %d   cancelled = %d\n" p.p_completed
        p.p_cancelled;
      Printf.printf "  resolves        = %d   migrations = %d\n" p.p_resolves
        p.p_migrations;
      Printf.printf "  dedup entries   = %d\n"
        (List.length s.Serve.Snapshot.dedup);
      List.iter
        (fun (pj : Online.Service.pjob) ->
          Printf.printf
            "  job %-4d %-12s arrival=%-10.6g remaining=%-12.6g procs=%-6.3g \
             cache=%.3g\n"
            pj.Online.Service.pj_id pj.pj_app.Model.App.name pj.pj_arrival
            pj.pj_remaining pj.pj_procs pj.pj_cache)
        p.p_jobs;
      true
  in
  let inspect_journal ~replay ~procs ~cs file =
    (* A daemon journal is [file] plus its older segments [file.1], ...;
       every report spans them all, oldest first. *)
    let segments =
      List.map
        (fun seg -> (seg, Campaign.Journal.scan ~path:seg))
        (Campaign.Journal.segments ~path:file)
    in
    let entries = List.concat_map (fun (_, (e, _)) -> e) segments in
    let counts = Hashtbl.create 8 in
    let min_seq = ref max_int and max_seq = ref min_int in
    List.iter
      (fun (e : Campaign.Journal.entry) ->
        let verb, seq =
          match String.split_on_char ':' e.key with
          | verb :: seq :: _ -> (verb, int_of_string_opt seq)
          | _ -> ("<malformed>", None)
        in
        Hashtbl.replace counts verb
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts verb));
        Option.iter
          (fun s ->
            if s < !min_seq then min_seq := s;
            if s > !max_seq then max_seq := s)
          seq)
      entries;
    Printf.printf "journal %s: %d intact record(s) in %d segment(s)\n" file
      (List.length entries) (List.length segments);
    Hashtbl.iter (Printf.printf "  %-12s %d\n") counts;
    if !max_seq >= !min_seq then
      Printf.printf "  seq range       = %d .. %d\n" !min_seq !max_seq;
    List.iter
      (fun (seg, (entries, bad)) ->
        Printf.printf "  segment %s: %d intact record(s)\n" seg
          (List.length entries);
        match bad with
        | [] -> print_endline "    torn tail     : none (every line checksums)"
        | bad ->
          Printf.printf
            "    torn tail     : %d corrupt line(s) would be quarantined on \
             recovery\n"
            (List.length bad);
          List.iteri
            (fun i l ->
              if i < 3 then
                Printf.printf "      %s%s\n"
                  (String.sub l 0 (min 60 (String.length l)))
                  (if String.length l > 60 then "…" else ""))
            bad)
      segments;
    if replay then begin
      (* Recovery heals and quarantines in place, so replay a copy of
         every segment: the inspected files must come out
         byte-identical. *)
      let dir = Filename.temp_dir "cosched-journal-inspect" "" in
      let tmp = Filename.concat dir "journal.jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun p -> try Sys.remove (Filename.concat dir p) with Sys_error _ -> ())
            (Sys.readdir dir);
          try Sys.rmdir dir with Sys_error _ -> ())
        (fun () ->
          List.iteri
            (fun i (seg, _) ->
              copy_file seg
                (Campaign.Journal.segment_path tmp (List.length segments - 1 - i)))
            segments;
          let backend =
            Serve.Backend.create
              {
                Serve.Backend.default_config with
                platform = platform_of ~procs ~cs;
                journal = Some tmp;
              }
          in
          let resp =
            Serve.Backend.handle backend ~clients:0
              {
                Serve.Protocol.rid = 0;
                sid = None;
                at = None;
                verb = Serve.Protocol.(Query Status);
              }
          in
          print_endline "  recovered state (replayed on a temporary copy):";
          Printf.printf "    %s\n" (Serve.Protocol.encode_response resp))
    end;
    List.for_all (fun (_, (_, bad)) -> bad = []) segments
  in
  let run file kind no_replay procs cs =
    if not (Sys.file_exists file) then begin
      Printf.eprintf "cosched journal: no such file: %s\n" file;
      exit 2
    end;
    let kind = match kind with `Auto -> sniff file | k -> k in
    let ok =
      match kind with
      | `Snapshot -> inspect_snapshot file
      | `Journal | `Auto -> inspect_journal ~replay:(not no_replay) ~procs ~cs file
    in
    if not ok then exit 1
  in
  let term =
    Term.(const run $ file_arg $ kind_arg $ no_replay_arg $ procs_arg $ cs_arg)
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Inspect and validate a daemon journal (every segment: FILE.N ... \
          FILE.1, FILE) or snapshot: record counts, torn-tail report per \
          segment, and the live-job summary a recovery would produce.")
    term

let main_cmd =
  let doc = "Co-scheduling algorithms for cache-partitioned systems" in
  Cmd.group (Cmd.info "cosched" ~version:"1.0.0" ~doc)
    [
      experiment_cmd; schedule_cmd; exact_cmd; cachesim_cmd; validate_cmd;
      online_cmd; instance_cmd; refine_cmd; serve_cmd; client_cmd; journal_cmd;
    ]

let () =
  (* A `Trial_failed` report is only actionable with the trial's
     backtrace in it. *)
  Printexc.record_backtrace true;
  exit (Cmd.eval main_cmd)
