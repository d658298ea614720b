(* Observability smoke: serve a small Poisson stream with probes on,
   write the Chrome trace, and validate both export formats end to end —
   exactly what `cosched online --trace ... --metrics prom` does, minus
   the CLI.  Part of `dune runtest` and runnable on its own as `dune
   build @obs`. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let platform = Model.Platform.paper_default in
  let rng = Util.Rng.create 2017 in
  let stream =
    Online.Workload_stream.poisson_load ~rng ~platform ~load:4.
      ~dataset:Model.Workload.NpbSynth 12
  in
  let trace = "obs_smoke.trace.json" in
  ignore (Obs.Report.configure ~trace () : bool);
  let m = Online.Service.run ~platform stream in
  Obs.Report.finish ~trace ~out:print_string ();
  (* Re-validate the file actually on disk, not just the in-memory
     rendering [finish] checked before writing. *)
  let ic = open_in trace in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let spans =
    try Obs.Trace_json.validate_chrome text
    with Failure m -> die "obs_smoke: invalid trace on disk: %s" m
  in
  if spans = 0 then die "obs_smoke: trace has no spans";
  let prom = Obs.Report.render Obs.Report.Prometheus in
  let samples =
    try Obs.Trace_json.validate_prometheus prom
    with Failure m -> die "obs_smoke: invalid prometheus exposition: %s" m
  in
  if samples = 0 then die "obs_smoke: prometheus exposition has no samples";
  if m.Online.Metrics.events = 0 then die "obs_smoke: service handled no events";
  if m.Online.Metrics.completed = 0 then die "obs_smoke: no jobs completed";
  Printf.printf
    "obs smoke: %d events, %d completions; %d spans on disk, %d prometheus \
     samples\n"
    m.Online.Metrics.events m.Online.Metrics.completed spans samples
