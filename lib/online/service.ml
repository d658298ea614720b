type config = {
  policy : Policy.t;
  mode : Incremental.mode;
  validate : bool;
}

let default_config =
  { policy = Policy.Every_event; mode = Incremental.Warm; validate = false }

type notice =
  | Resolved of { time : float; epoch : int; k : float }
  | Completed of { time : float; id : int }

(* Jobs within this remaining-work fraction of done are completed by the
   same sweep: equalised cohorts finish within the makespan bisection
   tolerance (~1e-12 relative), far inside this margin, while genuinely
   unfinished jobs are far outside it. *)
let completion_eps = 1e-9

let m_events =
  Obs.Metrics.counter ~help:"events handled by the online service"
    "service.events"

let m_event_us =
  Obs.Metrics.histogram ~help:"wall time per event handled, in microseconds"
    "service.event_us"

let m_queue_depth =
  Obs.Metrics.gauge ~help:"live jobs holding zero processors after the last event"
    "service.queue_depth"

let m_live_jobs =
  Obs.Metrics.gauge ~help:"live jobs after the last event" "service.live_jobs"

(* Retired-job statistics: no retired job is kept, so each retirement
   folds its count, response and stretch in here as it happens, in
   retirement order.  A checkpoint carries the sums, which are exact
   left-fold prefixes, so a restored instance continuing the fold job by
   job reproduces the uncrashed metrics bit for bit. *)
type stats_basis = {
  b_completed : int;
  b_cancelled : int;
  b_resp_sum : float;
  b_resp_max : float;  (* neg_infinity when no completions yet *)
  b_str_sum : float;
  b_str_max : float;
}

(* The stepwise core.  [run] below and the [Serve] daemon both drive this
   record, so an offline replay and a served stream of the same events
   are the same code path (the daemon-vs-offline equivalence property in
   test/test_serve.ml holds by construction, and is still checked). *)
type live = {
  config : config;
  platform : Model.Platform.t;
  state : State.t;
  engine : Simulator.Engine.t;
  inc : Incremental.t;
  jobs_by_id : (int, State.job) Hashtbl.t;  (* live jobs only *)
  listener : (notice -> unit) option;
  mutable events_since : int;
  mutable events_handled : int;
  mutable forced : int;
  mutable migrations : int;
  mutable last_k : float option;  (* equalised makespan of the last solve *)
  mutable basis : stats_basis;
}

let zero_basis =
  {
    b_completed = 0;
    b_cancelled = 0;
    b_resp_sum = 0.;
    b_resp_max = neg_infinity;
    b_str_sum = 0.;
    b_str_max = neg_infinity;
  }

let live_create ?(config = default_config) ?listener ~platform () =
  Policy.validate config.policy;
  {
    config;
    platform;
    state = State.create platform;
    engine = Simulator.Engine.create ();
    inc = Incremental.create ();
    jobs_by_id = Hashtbl.create 64;
    listener;
    events_since = 0;
    events_handled = 0;
    forced = 0;
    migrations = 0;
    last_k = None;
    basis = zero_basis;
  }

let live_now lv = Simulator.Engine.now lv.engine

let live_epoch lv = (Incremental.counters lv.inc).Incremental.resolves

let live_state lv = lv.state

let live_counters lv = Incremental.counters lv.inc

let pending_events lv = Simulator.Engine.pending lv.engine

let last_makespan lv = lv.last_k

let find_job lv id = Hashtbl.find_opt lv.jobs_by_id id

let notify lv n = match lv.listener with None -> () | Some f -> f n

(* The two retirement points, each folding the job into the basis. *)
let retire_completed lv j =
  Hashtbl.remove lv.jobs_by_id (State.id j);
  let b = lv.basis in
  let resp = Option.get (State.finish j) -. State.arrival j in
  let str = resp /. State.alone_time j in
  lv.basis <-
    {
      b with
      b_completed = b.b_completed + 1;
      b_resp_sum = b.b_resp_sum +. resp;
      b_resp_max = Float.max b.b_resp_max resp;
      b_str_sum = b.b_str_sum +. str;
      b_str_max = Float.max b.b_str_max str;
    }

let retire_cancelled lv j =
  Hashtbl.remove lv.jobs_by_id (State.id j);
  lv.basis <- { lv.basis with b_cancelled = lv.basis.b_cancelled + 1 }

(* Cheap estimate of the relative makespan damage of not re-solving:
   idle platform fraction plus the queued share of live work.  The idle
   fraction is floored at 1e-9 so that the one-ulp residue of the
   post-solve processor rescale reads as exactly zero — the Threshold
   decision must not depend on root-finder noise (rounding would decide
   razor-edge ties). *)
let degradation lv () =
  let p = lv.platform.Model.Platform.p in
  let used, queued_w, total_w = State.demand_summary lv.state in
  let idle =
    let frac = (p -. used) /. p in
    if frac > 1e-9 then frac else 0.
  in
  idle +. (if total_w > 0. then queued_w /. total_w else 0.)

let resolve lv ~is_forced () =
  if State.live_count lv.state > 0 then begin
    let now = Simulator.Engine.now lv.engine in
    (* The anchor is the last install instant: [solve_state]'s view
       settles the live set and moves it to [now]. *)
    let elapsed = now -. State.anchor lv.state in
    (* Columnar hot path: no per-job materialization. *)
    let k, migrations =
      Incremental.solve_state lv.inc ~elapsed ~state:lv.state
    in
    lv.migrations <- lv.migrations + migrations;
    if is_forced then lv.forced <- lv.forced + 1;
    lv.events_since <- 0;
    lv.last_k <- Some k;
    if lv.config.validate then State.assert_conservation lv.state;
    notify lv (Resolved { time = now; epoch = live_epoch lv; k })
  end

let decide lv =
  if State.live_count lv.state = 0 then ()
  else begin
    let queued = State.queued lv.state > 0 in
    let running = State.running lv.state > 0 in
    if queued && not running then resolve lv ~is_forced:true ()
    else if
      Policy.should_resolve lv.config.policy ~events_pending:lv.events_since
        ~degradation:(degradation lv)
    then resolve lv ~is_forced:false ()
  end

(* Per-event probe epilogue: wall time into the latency histogram, queue
   depth and live-job gauges from the post-event state.  Called only when
   probes are on; with probes off each handler pays one flag test and two
   constant bindings. *)
let finish_event lv sp t0 =
  Obs.Metrics.incr m_events;
  Obs.Metrics.observe m_event_us (Obs.Clock.elapsed_us ~since:t0);
  Obs.Metrics.set m_queue_depth (float_of_int (State.queued lv.state));
  Obs.Metrics.set m_live_jobs (float_of_int (State.live_count lv.state));
  Obs.Span.stop sp

(* One next-completion event per allocation epoch: equalised cohorts
   finish together, so the earliest predicted completion sweeps every job
   that is done to within [completion_eps].  A running job's absolute
   finish is fixed when its allocation is installed and the state keeps
   the earliest, so the prediction is read, not computed.  The engine
   holds this one event and nothing else, replaced only when the
   predicted instant moves (a re-solve, a completion sweep, or the
   retirement of the earliest finisher); a firing event has left the
   queue, so its handler always reschedules. *)
let rec schedule_next_completion lv =
  let next = State.next_finish lv.state in
  let at =
    if next < infinity then Some (Float.max next (Simulator.Engine.now lv.engine))
    else None
  in
  if at <> Simulator.Engine.next_time lv.engine then begin
    Simulator.Engine.clear lv.engine;
    match at with
    | Some at -> Simulator.Engine.schedule lv.engine ~at (on_completion lv)
    | None -> ()
  end

and on_completion lv eng =
  let on = Obs.Probe.on () in
  let sp = if on then Obs.Span.start "service.completion" else Obs.Span.null in
  let t0 = if on then Obs.Clock.now_ns () else 0L in
  let now = Simulator.Engine.now eng in
  State.advance lv.state ~to_:now;
  State.complete_due lv.state ~eps:completion_eps (fun j ->
      retire_completed lv j;
      notify lv (Completed { time = now; id = State.id j }));
  lv.events_handled <- lv.events_handled + 1;
  lv.events_since <- lv.events_since + 1;
  after_event lv;
  if on then finish_event lv sp t0

and after_event lv =
  if lv.config.validate then State.assert_conservation lv.state;
  decide lv;
  schedule_next_completion lv

(* Advance the engine (firing due completion predictions, each of which
   sweeps its cohort and may re-solve) and then the state clock to
   [to_].  Times in the past clamp to now: the daemon may observe a
   request timestamped slightly behind its model clock. *)
let advance lv ~to_ =
  let to_ = Float.max to_ (Simulator.Engine.now lv.engine) in
  Simulator.Engine.advance_to lv.engine ~to_;
  State.advance lv.state ~to_

let submit lv ~at app =
  let at = Float.max at (Simulator.Engine.now lv.engine) in
  Simulator.Engine.advance_to lv.engine ~to_:at;
  let on = Obs.Probe.on () in
  let sp = if on then Obs.Span.start "service.arrival" else Obs.Span.null in
  let t0 = if on then Obs.Clock.now_ns () else 0L in
  State.advance lv.state ~to_:at;
  let job = State.add lv.state ~app in
  Hashtbl.replace lv.jobs_by_id (State.id job) job;
  lv.events_handled <- lv.events_handled + 1;
  lv.events_since <- lv.events_since + 1;
  after_event lv;
  if on then finish_event lv sp t0;
  job

let cancel lv ~at ~id =
  let at = Float.max at (Simulator.Engine.now lv.engine) in
  (* Completions due before the cancellation fire first, exactly as they
     would in a time-ordered replay — a job that finishes before its
     departure arrives is not cancelled. *)
  Simulator.Engine.advance_to lv.engine ~to_:at;
  match Hashtbl.find_opt lv.jobs_by_id id with
  | Some job ->
    let on = Obs.Probe.on () in
    let sp = if on then Obs.Span.start "service.departure" else Obs.Span.null in
    let t0 = if on then Obs.Clock.now_ns () else 0L in
    State.advance lv.state ~to_:at;
    State.cancel lv.state job;
    retire_cancelled lv job;
    lv.events_handled <- lv.events_handled + 1;
    lv.events_since <- lv.events_since + 1;
    after_event lv;
    if on then finish_event lv sp t0;
    true
  | None -> false

let drain_step lv =
  Simulator.Engine.run lv.engine;
  if State.live_count lv.state = 0 then false
  else begin
    (* A policy can leave jobs queued after the input stops (it never
       triggered and nothing was running to force it). *)
    resolve lv ~is_forced:true ();
    schedule_next_completion lv;
    true
  end

let drain lv =
  while drain_step lv do
    ()
  done

let live_report lv =
  let s = lv.basis in
  let makespan = State.now lv.state in
  let c = Incremental.counters lv.inc in
  {
    Metrics.jobs = s.b_completed + s.b_cancelled + State.live_count lv.state;
    completed = s.b_completed;
    cancelled = s.b_cancelled;
    events = lv.events_handled;
    resolves = c.Incremental.resolves;
    forced_resolves = lv.forced;
    migrations = lv.migrations;
    solver_iters = c.Incremental.solver_iters;
    partition_ops = c.Incremental.partition_ops;
    warm_hits = c.Incremental.warm_hits;
    cold_fallbacks = c.Incremental.cold_fallbacks;
    makespan;
    mean_response =
      (if s.b_completed = 0 then 0.
       else s.b_resp_sum /. float_of_int s.b_completed);
    max_response = (if s.b_completed = 0 then 0. else s.b_resp_max);
    mean_stretch =
      (if s.b_completed = 0 then 0.
       else s.b_str_sum /. float_of_int s.b_completed);
    max_stretch = (if s.b_completed = 0 then 0. else s.b_str_max);
    utilization =
      (if makespan > 0. then
         State.busy_integral lv.state
         /. (lv.platform.Model.Platform.p *. makespan)
       else 0.);
  }

(* --- checkpoint / restore ---------------------------------------------- *)

type pjob = {
  pj_id : int;
  pj_app : Model.App.t;
  pj_arrival : float;
  pj_remaining : float;
  pj_procs : float;
  pj_cache : float;
  pj_allocated : bool;
  pj_epoch : int;
  pj_migrations : int;
}

type persist = {
  p_time : float;
  p_next_id : int;
  p_busy : float;
  p_pending : float option;
  p_last_solve : float;
  p_last_k : float option;
  p_prev_d : float;
  p_events_handled : int;
  p_events_since : int;
  p_forced : int;
  p_migrations : int;
  p_resolves : int;
  p_solver_iters : int;
  p_partition_ops : int;
  p_warm_hits : int;
  p_cold_fallbacks : int;
  p_completed : int;
  p_cancelled : int;
  p_resp_sum : float;
  p_resp_max : float;
  p_str_sum : float;
  p_str_max : float;
  p_jobs : pjob list;
}

let live_persist lv =
  let s = lv.basis in
  let c = Incremental.counters lv.inc in
  let jobs =
    Array.to_list
      (Array.map
         (fun j ->
           {
             pj_id = State.id j;
             pj_app = State.app j;
             pj_arrival = State.arrival j;
             pj_remaining = State.settled_remaining j;
             pj_procs = State.procs j;
             pj_cache = State.cache j;
             pj_allocated = State.allocated j;
             pj_epoch = State.epoch j;
             pj_migrations = State.migrations j;
           })
         (State.live lv.state))
  in
  {
    p_time = Simulator.Engine.now lv.engine;
    p_next_id = State.next_id lv.state;
    p_busy = State.settled_busy lv.state;
    p_pending = Simulator.Engine.next_time lv.engine;
    p_last_solve = State.anchor lv.state;
    p_last_k = lv.last_k;
    p_prev_d = Incremental.prev_demand lv.inc;
    p_events_handled = lv.events_handled;
    p_events_since = lv.events_since;
    p_forced = lv.forced;
    p_migrations = lv.migrations;
    p_resolves = c.Incremental.resolves;
    p_solver_iters = c.Incremental.solver_iters;
    p_partition_ops = c.Incremental.partition_ops;
    p_warm_hits = c.Incremental.warm_hits;
    p_cold_fallbacks = c.Incremental.cold_fallbacks;
    p_completed = s.b_completed;
    p_cancelled = s.b_cancelled;
    p_resp_sum = s.b_resp_sum;
    p_resp_max = s.b_resp_max;
    p_str_sum = s.b_str_sum;
    p_str_max = s.b_str_max;
    p_jobs = jobs;
  }

let live_restore ?(config = default_config) ?listener ~platform p =
  Policy.validate config.policy;
  let live = List.length p.p_jobs in
  let lv =
    {
      config;
      platform;
      state = State.create platform;
      engine = Simulator.Engine.create ();
      inc = Incremental.create ();
      jobs_by_id = Hashtbl.create live;
      listener;
      events_since = p.p_events_since;
      events_handled = p.p_events_handled;
      forced = p.p_forced;
      migrations = p.p_migrations;
      last_k = p.p_last_k;
      basis =
        {
          b_completed = p.p_completed;
          b_cancelled = p.p_cancelled;
          b_resp_sum = p.p_resp_sum;
          b_resp_max = p.p_resp_max;
          b_str_sum = p.p_str_sum;
          b_str_max = p.p_str_max;
        };
    }
  in
  Simulator.Engine.advance_to lv.engine ~to_:p.p_time;
  State.restore lv.state ~clock:p.p_time ~anchor:p.p_last_solve
    ~next_id:p.p_next_id ~busy:p.p_busy ~live;
  List.iter
    (fun pj ->
      let job =
        State.inject lv.state ~id:pj.pj_id ~app:pj.pj_app
          ~arrival:pj.pj_arrival ~remaining:pj.pj_remaining
          ~procs:pj.pj_procs ~cache:pj.pj_cache ~allocated:pj.pj_allocated
          ~epoch:pj.pj_epoch ~migrations:pj.pj_migrations
      in
      Hashtbl.replace lv.jobs_by_id pj.pj_id job)
    p.p_jobs;
  let c = Incremental.counters lv.inc in
  c.Incremental.resolves <- p.p_resolves;
  c.Incremental.solver_iters <- p.p_solver_iters;
  c.Incremental.partition_ops <- p.p_partition_ops;
  c.Incremental.warm_hits <- p.p_warm_hits;
  c.Incremental.cold_fallbacks <- p.p_cold_fallbacks;
  (* Re-arm the warm seed: the first post-restore re-solve must predict
     from the same previous makespan and demand scale as the uncrashed
     run, or its Illinois refinement would land ulps away and break the
     byte-identical recovery property. *)
  Incremental.reseed lv.inc ~prev_k:p.p_last_k ~prev_d:p.p_prev_d;
  (* Re-arm the completion prediction.  The injected jobs carry their
     remaining fractions at the checkpointed anchor, so the state
     recomputes each predicted finish [anchor + rem * exe] from the same
     bits the uncrashed run installed: the re-armed instant equals the
     checkpointed [p_pending], and the post-restore event sequence —
     every finish timestamp and allocation — is bit-identical. *)
  schedule_next_completion lv;
  lv

let run ?(config = default_config) ~platform stream =
  let lv = live_create ~config ~platform () in
  List.iter
    (fun { Workload_stream.time; kind } ->
      match kind with
      | Workload_stream.Arrival app -> ignore (submit lv ~at:time app : State.job)
      | Workload_stream.Departure idx -> ignore (cancel lv ~at:time ~id:idx : bool))
    (Workload_stream.events stream);
  drain lv;
  live_report lv
