(* The benchmark executable: one workload per process (wire-mixed forks
   its daemon, which OCaml forbids once domains exist, and peak RSS is
   per process).  Prints a stamp line, then the result line a benchmark
   harness reads; also writes both to [<out>/<workload>-seed<seed>-trace<t>.json]
   and, for a traced run, the spans as a Chrome trace beside it. *)

open Perfbench

let workloads = [ "wire-mixed"; "live-1e5"; "offline-paper" ]

let run (c : Cfg.t) ~workload ~commit =
  let ref_before = Host.ref_kernel_ms () in
  let ticks = Host.cpu_ticks () in
  let result, traced =
    match (workload, c.trace) with
    | "wire-mixed", false -> (Wire.e2e c, None)
    | "live-1e5", false -> (Live.e2e c, None)
    | "offline-paper", false -> (Offline.e2e c, None)
    | "wire-mixed", true -> let r, s, l = Wire.traced c in (r, Some (s, l))
    | "live-1e5", true -> let r, s, l = Live.traced c in (r, Some (s, l))
    | "offline-paper", true -> let r, s, l = Offline.traced c in (r, Some (s, l))
    | w, _ -> invalid_arg ("unknown workload " ^ w)
  in
  let steal = Host.steal_pct ticks (Host.cpu_ticks ()) in
  let ref_ms = (ref_before +. Host.ref_kernel_ms ()) /. 2. in
  let base = Filename.concat c.out_dir (Printf.sprintf "%s-seed%d-trace%d" workload c.seed (Bool.to_int c.trace)) in
  let result =
    match traced with
    | None -> { result with metrics = Layers.complete Layers.end_to_end result.metrics }
    | Some (spans, lib) ->
      let events = Spans.write spans ~lib ~path:(base ^ ".trace.json") in
      let dropped = Spans.dropped spans in
      let extra =
        [
          Out.metric "trace.dropped_spans" "count" (float_of_int dropped);
          Out.metric "host.ref_kernel_ms" "ms" ref_ms;
        ]
      in
      let ok = dropped = 0 in
      let layer_sum =
        match List.find_opt (fun (m : Out.metric) -> m.name = "trace.layer_sum_ratio") result.metrics with
        | Some m when Float.abs (m.value -. 1.) > Layers.sum_tolerance ->
          [ Printf.sprintf "layer sum %.3f of the end-to-end time, outside 1 +- %g" m.value Layers.sum_tolerance ]
        | _ -> []
      in
      {
        result with
        correct = result.correct && ok;
        failed = (if ok then result.failed else result.attempted);
        metrics = Layers.complete Layers.per_layer (result.metrics @ extra);
        notes =
          (if ok then [] else [ Printf.sprintf "%d spans dropped" dropped ])
          @ result.notes @ layer_sum
          @ [ Printf.sprintf "%d trace events in %s.trace.json" events base ];
      }
  in
  let stamp =
    {
      Out.workload;
      seed = c.seed;
      trace = c.trace;
      tiny = c.tiny;
      seconds = c.seconds;
      cores = Domain.recommended_domain_count ();
      commit;
      ref_kernel_ms = ref_ms;
      steal_pct = steal;
    }
  in
  let lines = [ Out.stamp_line stamp result; Out.result_line result ] in
  Obs.Trace_json.write ~path:(base ^ ".json") (String.concat "\n" lines ^ "\n");
  List.iter print_endline lines

let main workload seed seconds trace tiny inject out_dir digests commit print_digest =
  let c = { Cfg.seed; seconds; trace; tiny; inject; out_dir; digests } in
  Host.mkdir_p out_dir;
  if print_digest then
    Printf.printf "%d %d %s\n" (Offline.trials c) seed
      (Offline.campaign ~seed ~jobs:1 ~trials:(Offline.trials c) ())
  else run c ~workload ~commit

open Cmdliner

let cmd =
  let workload =
    Arg.(required & opt (some (enum (List.map (fun w -> (w, w)) workloads))) None
         & info [ "workload" ] ~docv:"NAME" ~doc:"Workload: wire-mixed, live-1e5 or offline-paper.")
  in
  let seed = Arg.(value & opt int 2017 & info [ "seed" ] ~docv:"N" ~doc:"Seed of the generated inputs.") in
  let seconds =
    Arg.(value & opt float 10. & info [ "seconds" ] ~docv:"S" ~doc:"Length of the timed phase.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1" ~doc:"1: the traced run, reporting per-layer metrics.")
  in
  let tiny = Arg.(value & flag & info [ "tiny" ] ~doc:"Miniature inputs, for the benchmark's tests.") in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Corrupt one output on purpose (drop-reply, live-count, corrupt-response, \
                   lose-job, flip-digest, jobs-mismatch): the run must report correct=false.")
  in
  let out_dir =
    Arg.(value & opt string ".bench_out" & info [ "out" ] ~docv:"DIR" ~doc:"Scratch and record directory.")
  in
  let digests =
    Arg.(value & opt string "perfbench/digests.txt"
         & info [ "digests" ] ~docv:"FILE" ~doc:"Stored offline-paper figure digests.")
  in
  let commit =
    Arg.(value & opt string "unknown" & info [ "commit" ] ~docv:"ID" ~doc:"Source revision stamped on the result.")
  in
  let print_digest =
    Arg.(value & flag
         & info [ "print-digest" ]
             ~doc:"Print the one-worker offline-paper digest line for --seed (and --tiny) and exit.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one benchmark workload and print its metrics.")
    Term.(const main $ workload $ seed $ seconds $ trace $ tiny $ inject $ out_dir $ digests $ commit
          $ print_digest)

let () = exit (Cmd.eval cmd)
