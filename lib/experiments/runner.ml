type instance = {
  platform : Model.Platform.t;
  apps : Model.App.t array;
}

type config = {
  trials : int;
  seed : int;
  jobs : int;
  journal : Campaign.Journal.t option;
  on_failure : [ `Abort | `Skip | `Retry ];
  max_retries : int;
  trial_timeout : float option;
  fault : Campaign.Fault.t option;
}

let default_config =
  {
    trials = 50;
    seed = 2017;
    jobs = 1;
    journal = None;
    on_failure = `Abort;
    max_retries = 2;
    trial_timeout = None;
    fault = None;
  }

let trial_rngs config =
  let master = Util.Rng.create config.seed in
  List.init config.trials (fun _ -> Util.Rng.split master)

(* All trial execution funnels through here: pre-split substreams, shard
   them over the campaign pool, get payloads back in trial order.  Failure
   policy, retry budget, deadline and fault harness all come from the
   config so every experiment entry point inherits them. *)
let run_campaign ~config ~key ~work =
  let rngs = Array.of_list (trial_rngs config) in
  Campaign.run ~jobs:config.jobs ?journal:config.journal
    ~on_failure:config.on_failure ~max_retries:config.max_retries
    ?trial_timeout:config.trial_timeout ?fault:config.fault ~key ~work rngs

let run_trials ~config ~tag ~work () =
  run_campaign ~config
    ~key:(fun _ rng -> Campaign.Digest.tagged ~tag ~state:(Util.Rng.state rng))
    ~work:(fun _ rng ->
      Campaign.Watchdog.check ();
      work rng)

let mean_makespans_stats ~config ~gen ~policies =
  let names = List.map Sched.Heuristics.name policies in
  let key _ rng =
    let state = Util.Rng.state rng in
    let { platform; apps } = gen rng in
    Campaign.Digest.trial ~kind:"mean-makespans" ~platform ~apps
      ~policies:names ~state
  in
  let work _ rng =
    let { platform; apps } = gen rng in
    Array.of_list
      (List.map
         (fun policy ->
           (* Safepoint for the cooperative trial deadline: a stuck
              policy solve times the trial out at the next boundary. *)
           Campaign.Watchdog.check ();
           Sched.Heuristics.makespan ~rng ~platform ~apps policy)
         policies)
  in
  let outcome = run_campaign ~config ~key ~work in
  (* Merge in trial-index order: the Online accumulators see exactly the
     sequence the historical sequential loop produced.  Failed trials are
     explicit holes — skipped here, counted in the stats. *)
  let acc = List.map (fun p -> (p, Util.Stats.Online.create ())) policies in
  Array.iter
    (function
      | Campaign.Ok row ->
        List.iteri (fun j (_, online) -> Util.Stats.Online.add online row.(j)) acc
      | Campaign.Failed _ -> ())
    outcome.Campaign.outcomes;
  ( List.map
      (fun (p, online) ->
        ( p,
          if Util.Stats.Online.count online = 0 then Float.nan
          else Util.Stats.Online.mean online ))
      acc,
    outcome.Campaign.stats )

let mean_makespans ~config ~gen ~policies =
  fst (mean_makespans_stats ~config ~gen ~policies)

let sweep ?(config = default_config) ~id ~title ~xlabel ~values ~gen ~policies ()
    =
  let holes = ref 0 in
  let rows =
    List.map
      (fun v ->
        let means, stats = mean_makespans_stats ~config ~gen:(gen v) ~policies in
        holes := !holes + stats.Campaign.failed;
        (v, List.map snd means))
      values
  in
  let title =
    (* Partial results are never passed off as complete: surviving-trial
       means are reported, but the holes are announced in the figure
       itself (all-hole cells render as nan). *)
    if !holes = 0 then title
    else Printf.sprintf "%s [%d failed trial(s) skipped]" title !holes
  in
  Report.make ~id ~title ~xlabel
    ~columns:(List.map Sched.Heuristics.name policies)
    ~rows

type repartition_stat = {
  policy : Sched.Heuristics.t;
  avg_procs : float;
  min_procs : float;
  max_procs : float;
  avg_cache : float;
  min_cache : float;
  max_cache : float;
}

(* One repartition trial's payload: for each policy, the allocation count
   followed by the per-application processor counts and cache fractions
   (0 when the policy has no concurrent schedule).  Storing raw samples
   rather than folded statistics keeps the journal payload exact and
   the merge bit-identical to the sequential accumulation. *)
let repartition_payload ~policies ~platform ~apps rng =
  Array.of_list
    (List.concat_map
       (fun policy ->
         Campaign.Watchdog.check ();
         match (Sched.Heuristics.run ~rng ~platform ~apps policy).schedule with
         | None -> [ 0. ]
         | Some schedule ->
           let allocs = schedule.Model.Schedule.allocs in
           let procs =
             Array.to_list
               (Array.map (fun a -> a.Model.Schedule.procs) allocs)
           in
           let cache =
             Array.to_list
               (Array.map (fun a -> a.Model.Schedule.cache) allocs)
           in
           (float_of_int (Array.length allocs) :: procs) @ cache)
       policies)

let repartition ?(config = default_config) ~values ~gen ~policies () =
  let names = List.map Sched.Heuristics.name policies in
  List.map
    (fun v ->
      let key _ rng =
        let state = Util.Rng.state rng in
        let { platform; apps } = gen v rng in
        Campaign.Digest.trial ~kind:"repartition" ~platform ~apps
          ~policies:names ~state
      in
      let work _ rng =
        let { platform; apps } = gen v rng in
        repartition_payload ~policies ~platform ~apps rng
      in
      let outcome = run_campaign ~config ~key ~work in
      let per_policy =
        List.map
          (fun policy ->
            ( policy,
              Util.Stats.Online.create (),
              Util.Stats.Online.create () ))
          policies
      in
      Array.iter
        (function
          | Campaign.Failed _ -> () (* explicit hole, counted in stats *)
          | Campaign.Ok row ->
            let pos = ref 0 in
            let next () =
              let x = row.(!pos) in
              incr pos;
              x
            in
            List.iter
              (fun (_, procs_acc, cache_acc) ->
                let k = int_of_float (next ()) in
                for _ = 1 to k do
                  Util.Stats.Online.add procs_acc (next ())
                done;
                for _ = 1 to k do
                  Util.Stats.Online.add cache_acc (next ())
                done)
              per_policy)
        outcome.Campaign.outcomes;
      let stats =
        List.filter_map
          (fun (policy, procs_acc, cache_acc) ->
            if Util.Stats.Online.count procs_acc = 0 then None
            else
              Some
                {
                  policy;
                  avg_procs = Util.Stats.Online.mean procs_acc;
                  min_procs = Util.Stats.Online.min procs_acc;
                  max_procs = Util.Stats.Online.max procs_acc;
                  avg_cache = Util.Stats.Online.mean cache_acc;
                  min_cache = Util.Stats.Online.min cache_acc;
                  max_cache = Util.Stats.Online.max cache_acc;
                })
          per_policy
      in
      (v, stats))
    values
