(* Online co-scheduling: a Poisson stream of analysis applications served
   by the event-driven service, re-solving the DominantMinRatio schedule
   as jobs arrive and complete.

   Run with: dune exec examples/online_service.exe *)

let () =
  let platform = Model.Platform.make ~p:32. ~cs:25e6 () in
  let rng = Util.Rng.create 7 in

  (* 40 NPB-like applications arriving so that about 6 jobs would be in
     flight if each ran alone on the full platform. *)
  let stream =
    Online.Workload_stream.poisson_load ~rng ~platform ~load:6.
      ~dataset:Model.Workload.NpbSynth 40
  in
  Printf.printf "stream: %d arrivals over horizon %.3g\n\n"
    (Online.Workload_stream.arrivals stream)
    (Online.Workload_stream.horizon stream);

  (* Serve the same stream under each built-in re-solve policy, every
     re-solve warm-started: Every_event re-solves at every
     arrival/completion, Batched and Threshold defer. *)
  List.iter
    (fun policy ->
      let config = { Online.Service.default_config with policy } in
      let metrics = Online.Service.run ~config ~platform stream in
      print_endline
        (Online.Metrics.render ~label:(Online.Policy.name policy) metrics);
      print_newline ())
    Online.Policy.defaults
