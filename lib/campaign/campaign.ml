module Digest = Digest
module Journal = Journal
module Fault = Fault
module Watchdog = Watchdog

let m_trials =
  Obs.Metrics.counter ~help:"trials executed by the worker pool" "pool.trials"

let m_trial_us =
  Obs.Metrics.histogram ~help:"trial wall time, in microseconds"
    "pool.trial_us"

let m_errors =
  Obs.Metrics.counter ~help:"trials that raised an exception"
    "pool.trial_errors"

(* Per-trial probes around the pooled function.  Worker domains record
   spans under their own tid, so a traced campaign shows one lane per
   pool worker in the Chrome trace viewer.  The pool captures exceptions
   per input slot, so the error metric is recorded here and the
   exception re-raised with its original backtrace. *)
let instrument f x =
  if not (Obs.Probe.on ()) then f x
  else begin
    let sp = Obs.Span.start "campaign.trial" in
    let t0 = Obs.Clock.now_ns () in
    let r = try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ()) in
    Obs.Metrics.observe m_trial_us (Obs.Clock.elapsed_us ~since:t0);
    Obs.Metrics.incr m_trials;
    (match r with Error _ -> Obs.Metrics.incr m_errors | Ok _ -> ());
    Obs.Span.stop sp;
    match r with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  end

type failure = { attempts : int; error : string; backtrace : string }

type trial_outcome = Ok of float array | Failed of failure

exception Trial_failed of int * failure

let () =
  Printexc.register_printer (function
    | Trial_failed (trial, f) ->
      Some
        (Printf.sprintf "Campaign.Trial_failed: trial %d failed after %d attempt%s: %s%s"
           trial f.attempts
           (if f.attempts = 1 then "" else "s")
           f.error
           (if String.trim f.backtrace = "" then ""
            else "\n" ^ f.backtrace))
    | _ -> None)

type stats = {
  total : int;
  computed : int;
  journal_hits : int;
  failed : int;
  retried : int;
  quarantined : int;
  elapsed : float;
  jobs : int;
}

type outcome = { outcomes : trial_outcome array; stats : stats }

let ok_results o =
  let keep =
    List.filter_map
      (function Ok v -> Some v | Failed _ -> None)
      (Array.to_list o.outcomes)
  in
  Array.of_list keep

let results o =
  Array.mapi
    (fun i -> function Ok v -> v | Failed f -> raise (Trial_failed (i, f)))
    o.outcomes

let failures o =
  Array.to_list o.outcomes
  |> List.mapi (fun i out -> (i, out))
  |> List.filter_map (function i, Failed f -> Some (i, f) | _, Ok _ -> None)

(* Deterministic backoff: the delay before retry [attempt] is a pure
   function of the trial RNG's pristine state and the attempt number —
   exponential growth with seeded jitter, never wall-clock randomness —
   so a retried campaign sleeps the same schedule on every run. *)
let backoff_delay ~state ~attempt =
  let seed =
    Int64.to_int
      (Int64.add state (Int64.mul (Int64.of_int (attempt + 1)) 0x9E3779B97F4A7C15L))
    land max_int
  in
  let jitter = Util.Rng.float (Util.Rng.create seed) 1.0 in
  Float.min 0.05 (1e-3 *. (2. ** float_of_int attempt) *. (0.5 +. jitter))

let m_retried =
  Obs.Metrics.counter ~help:"trial attempts retried after a failure"
    "campaign.retried"

let m_failed =
  Obs.Metrics.counter ~help:"trials that exhausted their attempts"
    "campaign.failed"

let run ?(jobs = 1) ?journal ?on_trial ?(on_failure = `Abort)
    ?(max_retries = 2) ?trial_timeout ?fault ~key ~work rngs =
  let start = Unix.gettimeofday () in
  let total = Array.length rngs in
  let jobs = if jobs <= 0 then Exec.Pool.default_jobs () else jobs in
  let lock = Mutex.create () in
  let completed = ref 0 in
  let journal_hits = ref 0 in
  let computed = ref 0 in
  let failed = ref 0 in
  let retried = ref 0 in
  let count counter =
    Mutex.lock lock;
    incr counter;
    Mutex.unlock lock
  in
  let compute i rng =
    let fresh () =
      let v = work i rng in
      count computed;
      v
    in
    match journal with
    | None -> fresh ()
    | Some j -> (
      let k = key i (Util.Rng.copy rng) in
      match Journal.lookup j k with
      | Some v ->
        count journal_hits;
        v
      | None ->
        let v = fresh () in
        Journal.append j { Journal.trial = i; key = k; values = v };
        v)
  in
  let max_attempts =
    match on_failure with
    | `Retry -> 1 + max 0 max_retries
    | `Abort | `Skip -> 1
  in
  let solve i =
    (* Every attempt restarts from a fresh copy of the trial's pristine
       substream, so a retry that succeeds produces a payload
       bit-identical to a fault-free run. *)
    let rec attempt_from k =
      let result =
        match
          Watchdog.with_deadline ?seconds:trial_timeout (fun () ->
              Fault.task_point ~trial:i ~attempt:k;
              Watchdog.check ();
              compute i (Util.Rng.copy rngs.(i)))
        with
        | v -> Stdlib.Ok v
        | exception e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
      in
      match result with
      | Stdlib.Ok v -> Ok v
      | Stdlib.Error (e, bt) ->
        if k + 1 < max_attempts then begin
          count retried;
          if Obs.Probe.on () then Obs.Metrics.incr m_retried;
          Unix.sleepf
            (backoff_delay ~state:(Util.Rng.state rngs.(i)) ~attempt:k);
          attempt_from (k + 1)
        end
        else begin
          count failed;
          if Obs.Probe.on () then Obs.Metrics.incr m_failed;
          Failed
            {
              attempts = k + 1;
              error = Printexc.to_string e;
              backtrace = Printexc.raw_backtrace_to_string bt;
            }
        end
    in
    let outcome = attempt_from 0 in
    (match on_trial with
    | None -> ()
    | Some f ->
      Mutex.lock lock;
      incr completed;
      let c = !completed in
      Mutex.unlock lock;
      f ~completed:c ~total);
    outcome
  in
  let body () =
    Exec.Pool.map_ordered ~jobs (instrument solve) (Array.init total Fun.id)
  in
  let outcomes =
    match fault with None -> body () | Some f -> Fault.with_harness f body
  in
  (match on_failure with
  | `Abort ->
    (* Fail like the sequential run would: the smallest failing index. *)
    Array.iteri
      (fun i -> function
        | Failed f -> raise (Trial_failed (i, f))
        | Ok _ -> ())
      outcomes
  | `Skip | `Retry -> ());
  let quarantined = Option.fold ~none:0 ~some:Journal.quarantined journal in
  {
    outcomes;
    stats =
      {
        total;
        computed = !computed;
        journal_hits = !journal_hits;
        failed = !failed;
        retried = !retried;
        quarantined;
        elapsed = Unix.gettimeofday () -. start;
        jobs;
      };
  }

let report s =
  let base =
    Printf.sprintf
      "%d trial%s (%d computed, %d from journal) in %.2fs on %d job%s"
      s.total
      (if s.total = 1 then "" else "s")
      s.computed s.journal_hits s.elapsed s.jobs
      (if s.jobs = 1 then "" else "s")
  in
  if s.failed = 0 && s.retried = 0 && s.quarantined = 0 then base
  else
    Printf.sprintf "%s; %d failed, %d retried, %d quarantined" base s.failed
      s.retried s.quarantined
