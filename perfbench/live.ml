(* live-1e5: the in-process online core (Batched 16, warm, sequential)
   holding 10^5 live jobs.  Timed events alternate a submit and a cancel
   of a distinct live job while model time advances by a sliver, so the
   live set stays at 10^5 and nothing completes.  The O(n)-per-event
   terms dominate and no serve layer is involved; arrivals and
   departures (the freelist) take different paths, and about one event
   in sixteen re-solves, so p50 measures plain events and p99 re-solve
   events. *)

let setups = 5
let size (c : Cfg.t) = if c.tiny then 2_000 else 100_000

let config =
  {
    Online.Service.default_config with
    policy = Online.Policy.Batched 16;
    mode = Online.Incremental.Warm;
  }

let platform = Model.Platform.paper_default

type setup = {
  lv : Online.Service.live;
  total_s : float;
  restore_s : float;
  first_solve_s : float;
}

(* Set-up: generate the apps, restore them as a checkpointed live set
   (no solve yet), then force the first cold solve. *)
let setup (c : Cfg.t) =
  let n = size c in
  let t0 = Host.now_ns () in
  let apps = Model.Workload.generate ~rng:(Util.Rng.create c.seed) Model.Workload.NpbSynth n in
  let persist =
    {
      Online.Service.p_time = 0.;
      p_next_id = n;
      p_busy = 0.;
      p_pending = None;
      p_last_solve = 0.;
      p_last_k = None;
      p_prev_d = 0.;
      p_events_handled = 0;
      p_events_since = 0;
      p_forced = 0;
      p_migrations = 0;
      p_resolves = 0;
      p_solver_iters = 0;
      p_partition_ops = 0;
      p_warm_hits = 0;
      p_cold_fallbacks = 0;
      p_completed = 0;
      p_cancelled = 0;
      p_resp_sum = 0.;
      p_resp_max = neg_infinity;
      p_str_sum = 0.;
      p_str_max = neg_infinity;
      p_jobs =
        List.init n (fun i ->
            {
              Online.Service.pj_id = i;
              pj_app = apps.(i);
              pj_arrival = 0.;
              pj_remaining = 1.;
              pj_procs = 0.;
              pj_cache = 0.;
              pj_allocated = false;
              pj_epoch = 0;
              pj_migrations = 0;
            });
    }
  in
  let t1 = Host.now_ns () in
  let lv = Online.Service.live_restore ~config ~platform persist in
  let t2 = Host.now_ns () in
  ignore (Online.Service.drain_step lv : bool);
  let d a b = Int64.to_float (Int64.sub b a) /. 1e9 in
  { lv; total_s = Host.s_since t0; restore_s = d t1 t2; first_solve_s = Host.s_since t2 }

type events = {
  lat : Host.Samples.t;  (* ms per event *)
  mutable submits : int;
  mutable cancels : int;  (* = the next initial job to cancel *)
  mutable refused : int;  (* cancels that found no live job *)
  next_app : unit -> Model.App.t;
}

let events (c : Cfg.t) =
  {
    lat = Host.Samples.create ();
    submits = 0;
    cancels = 0;
    refused = 0;
    next_app = Host.app_stream (Util.Rng.split (Util.Rng.create (c.seed + 1)));
  }

(* Run submit/cancel pairs until [stop]; [on_event] sees each event's
   kind, clock readings and whether it re-solved. *)
let drive lv e ~dt ~stop ?(on_event = fun ~submit:_ _ _ _ -> ()) () =
  while e.submits > e.cancels || not (stop ()) do
    let submit = e.submits = e.cancels in
    let app = if submit then Some (e.next_app ()) else None in
    let at = Online.Service.live_now lv +. dt in
    let epoch = Online.Service.live_epoch lv in
    let t0 = Host.now_ns () in
    (match app with
    | Some a -> ignore (Online.Service.submit lv ~at a : Online.State.job)
    | None -> if not (Online.Service.cancel lv ~at ~id:e.cancels) then e.refused <- e.refused + 1);
    let t1 = Host.now_ns () in
    if submit then e.submits <- e.submits + 1 else e.cancels <- e.cancels + 1;
    let resolved = Online.Service.live_epoch lv <> epoch in
    Host.Samples.add e.lat (Int64.to_float (Int64.sub t1 t0) /. 1e6);
    on_event ~submit resolved t0 t1
  done

let count e = Host.Samples.length e.lat

(* A sliver of the first solve's makespan per event: thousands of
   events move model time by well under 1%, so no job completes. *)
let sliver lv = match Online.Service.last_makespan lv with Some k -> k *. 1e-7 | None -> 1e-9

let checks (c : Cfg.t) lv e =
  if Cfg.injected c "lose-job" then
    ignore (Online.Service.cancel lv ~at:(Online.Service.live_now lv) ~id:e.cancels : bool);
  let state = Online.Service.live_state lv in
  let live = Online.State.live_count state in
  [
    ( Online.State.conservation_violation state = None,
      "conservation violated: "
      ^ Option.value ~default:"" (Online.State.conservation_violation state) );
    (live = size c, Printf.sprintf "live count %d after the run, expected %d" live (size c));
    (e.refused = 0, Printf.sprintf "%d cancels found no live job" e.refused);
  ]

let e2e (c : Cfg.t) =
  let times = Array.make setups 0. in
  for i = 0 to setups - 2 do
    times.(i) <- (setup c).total_s;
    Gc.compact ()
  done;
  let s = setup c in
  times.(setups - 1) <- s.total_s;
  let e = events c in
  let t0 = Host.now_ns () in
  drive s.lv e ~dt:(sliver s.lv) ~stop:(Host.for_seconds c.seconds) ();
  let secs = Host.s_since t0 in
  let lat = Host.Samples.to_array e.lat in
  Out.make ~checks:(checks c s.lv e) ~attempted:(count e) ~failed:e.refused
    ~metrics:
      [
        Out.metric "setup_s" "s" (Host.median times);
        Out.metric "throughput_per_s" "1/s" (float_of_int (count e) /. secs);
        Out.metric "latency_p50_ms" "ms" (Host.quantile lat 0.5);
        Out.metric "latency_p99_ms" "ms" (Host.quantile lat 0.99);
        Out.metric "peak_rss_mb" "MB" (Host.peak_rss_mb 0);
      ]
    ~samples:
      [
        ("setup_s", setups);
        ("latency_p50_ms", Array.length lat);
        ("latency_p99_ms", Array.length lat);
        ("latency_p99_ms.beyond", Host.beyond_p99 (Array.length lat));
      ]
    ~notes:[]

let traced (c : Cfg.t) =
  let s = setup c in
  let dt = sliver s.lv in
  let e = events c in
  (* Untraced slices give the reference per-event time; traced slices
     switch on the library's counters and spans and add one benchmark
     span per event. *)
  let spans = Spans.create (1 lsl 18) in
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  let plain = Host.Samples.create () and resolving = Host.Samples.create () in
  let sub = Host.Samples.create () and can = Host.Samples.create () in
  let n_a = ref 0 in
  let secs_a, secs_b =
    Host.alternate ~secs:c.seconds
      ~untraced:(fun stop ->
        let n0 = count e in
        drive s.lv e ~dt ~stop ();
        n_a := !n_a + count e - n0)
      ~traced:(fun stop ->
        Obs.Probe.enable ();
        drive s.lv e ~dt ~stop
          ~on_event:(fun ~submit resolved a b ->
            let ms = Int64.to_float (Int64.sub b a) /. 1e6 in
            Host.Samples.add (if resolved then resolving else plain) ms;
            Host.Samples.add (if submit then sub else can) ms;
            ignore
              (Spans.add spans
                 ~name:(if submit then "online.submit" else "online.cancel")
                 ~rid:(count e) ~tid:(if resolved then 1 else 0) ~t0:(Spans.us_of_ns a)
                 ~t1:(Spans.us_of_ns b) ()
                : int))
          ();
        Obs.Probe.disable ())
  in
  let per_event_a = secs_a *. 1e6 /. float_of_int (max 1 !n_a) in
  let wall_b = secs_b *. 1e6 in
  let n_b = count e - !n_a in
  let lib = Obs.Span.events () in
  let dur name =
    Array.fold_left (fun a (ev : Obs.Span.event) -> if ev.name = name then a +. ev.dur_us else a) 0. lib
  in
  let resolves = Host.counter "incremental.resolves" in
  let per_resolve x = float_of_int x /. float_of_int (max 1 resolves) in
  let fb = float_of_int (max 1 n_b) in
  (* The library's spans split each event into the service handler and
     the re-solve it runs; their sum is checked against the untraced
     per-event time. *)
  let service_us = (dur "service.arrival" +. dur "service.departure" +. dur "service.completion") /. fb in
  let metrics =
    [
      Out.metric "online.plain_event_ms_p50" "ms" (Host.quantile (Host.Samples.to_array plain) 0.5);
      Out.metric "online.resolve_event_ms_p50" "ms" (Host.quantile (Host.Samples.to_array resolving) 0.5);
      Out.metric "online.submit_ms_p50" "ms" (Host.quantile (Host.Samples.to_array sub) 0.5);
      Out.metric "online.cancel_ms_p50" "ms" (Host.quantile (Host.Samples.to_array can) 0.5);
      Out.metric "online.resolves_per_1k_events" "count"
        (1000. *. float_of_int (Host.Samples.length resolving) /. fb);
      Out.metric "online.resolve_us_per_event" "us" (dur "online.resolve" /. fb);
      Out.metric "online.service_us_per_event" "us" service_us;
      Out.metric "incremental.solver_iters_per_resolve" "count" (per_resolve (Host.counter "incremental.solver_iters"));
      Out.metric "incremental.partition_ops_per_resolve" "count" (per_resolve (Host.counter "incremental.partition_ops"));
      Out.metric "online.setup.restore_s" "s" s.restore_s;
      Out.metric "online.setup.first_solve_s" "s" s.first_solve_s;
      Out.metric "trace.overhead_pct" "%" (100. *. ((wall_b /. fb /. per_event_a) -. 1.));
      Out.metric "trace.layer_sum_ratio" "ratio" (service_us /. per_event_a);
    ]
  in
  ( Out.make ~checks:(checks c s.lv e) ~attempted:(count e) ~failed:e.refused ~metrics
      ~samples:
        [
          ("online.plain_event_ms_p50", Host.Samples.length plain);
          ("online.resolve_event_ms_p50", Host.Samples.length resolving);
          ("online.submit_ms_p50", Host.Samples.length sub);
          ("online.cancel_ms_p50", Host.Samples.length can);
        ]
      ~notes:[],
    spans,
    lib )
