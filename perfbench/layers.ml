(* Every metric the benchmark reports, with its unit — the names
   BENCHMARK.json lists.  A run prints all of one list: a layer the
   workload does not exercise reads 0, so "did not move" is visible. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let wire =
  [
    ("serve.frame.us_per_req", "us");
    ("serve.protocol.decode_us_per_req", "us");
    ("serve.protocol.encode_us_per_req", "us");
    ("serve.backend.handle_us_p50", "us");
    ("serve.backend.handle_us_p99", "us");
    ("campaign.journal.us_per_mutation", "us");
    ("campaign.journal.bytes_per_mutation", "bytes");
    ("serve.snapshot.us_per_mutation", "us");
    ("online.event_us", "us");
    ("serve.client.us_per_req", "us");
    ("serve.transport_us_per_req", "us");
    ("serve.wire_overhead_us_per_req", "us");
    ("online.resolves_per_1k_req", "count");
    ("serve.snapshots", "count");
  ]

let live =
  [
    ("online.plain_event_ms_p50", "ms");
    ("online.resolve_event_ms_p50", "ms");
    ("online.submit_ms_p50", "ms");
    ("online.cancel_ms_p50", "ms");
    ("online.resolves_per_1k_events", "count");
    ("online.resolve_us_per_event", "us");
    ("online.service_us_per_event", "us");
    ("incremental.solver_iters_per_resolve", "count");
    ("incremental.partition_ops_per_resolve", "count");
    ("online.setup.restore_s", "s");
    ("online.setup.first_solve_s", "s");
  ]

let offline =
  [
    ("experiments.fig1_s", "s");
    ("experiments.other_figures_s", "s");
    ("cachesim.table2_s", "s");
    ("experiments.render_ms", "ms");
    ("campaign.trial_us_p50", "us");
    ("campaign.trial_us_p99", "us");
    ("campaign.trials", "count");
    ("exec.pool.idle_waits", "count");
    ("exec.parallel_efficiency", "ratio");
    ("sched.equalize.solves_per_trial", "count");
    ("equalize.evals_per_solve", "count");
  ]
  @ List.map
      (fun p -> ("sched.heuristics.run_us." ^ Sched.Heuristics.name p, "us"))
      Sched.Heuristics.dominant_heuristics

let every =
  [
    ("trace.overhead_pct", "%");
    ("trace.layer_sum_ratio", "ratio");
    ("trace.dropped_spans", "count");
    ("host.ref_kernel_ms", "ms");
  ]

let per_layer = wire @ live @ offline @ every

(* How far the measured layer parts may sum from the end-to-end time
   per operation (trace.layer_sum_ratio) before the stamp flags it. *)
let sum_tolerance = 0.25

(* The registry's metrics in registry order, absent ones as 0.  A
   metric outside the registry, or with another unit, is a benchmark
   bug. *)
let complete registry (ms : Out.metric list) =
  List.iter
    (fun (m : Out.metric) ->
      match List.assoc_opt m.name registry with
      | Some u when u = m.unit_ -> ()
      | _ -> invalid_arg ("Layers.complete: unregistered metric " ^ m.name ^ " [" ^ m.unit_ ^ "]"))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Out.metric) -> m.name = name) ms with
      | Some m -> m
      | None -> Out.metric name unit_ 0.)
    registry
