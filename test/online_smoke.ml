(* End-to-end smoke of the online co-scheduling service: one small
   Poisson stream served under every built-in policy, with conservation
   (sum p_i <= p, sum x_i <= 1) asserted after every event.  Part of
   `dune runtest`; runnable alone as `dune build @online`. *)

let () =
  Printexc.record_backtrace true;
  let platform = Model.Platform.paper_default in
  let stream =
    Online.Workload_stream.poisson_load
      ~rng:(Util.Rng.create 2017) ~platform ~load:4.
      ~dataset:Model.Workload.NpbSynth 15
  in
  List.iter
    (fun policy ->
      let config =
        { Online.Service.default_config with policy; validate = true }
      in
      let report = Online.Service.run ~config ~platform stream in
      let m = report.Online.Service.metrics in
      if m.Online.Metrics.completed <> Online.Workload_stream.arrivals stream
      then
        failwith
          (Printf.sprintf "%s: %d of %d jobs completed"
             (Online.Policy.name policy)
             m.Online.Metrics.completed
             (Online.Workload_stream.arrivals stream));
      Printf.printf
        "%-14s %d events, %d resolves, %d migrations, utilization %.3f\n"
        (Online.Policy.name policy)
        m.Online.Metrics.events m.Online.Metrics.resolves
        m.Online.Metrics.migrations m.Online.Metrics.utilization)
    Online.Policy.defaults;
  print_endline "online smoke OK"
