type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let m_tasks =
  Obs.Metrics.counter ~help:"tasks dispatched to pool workers" "exec.pool.tasks"

let m_idle_waits =
  Obs.Metrics.counter ~help:"times a worker went to sleep on an empty queue"
    "exec.pool.idle_waits"

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.closed do
    if Obs.Probe.on () then Obs.Metrics.incr m_idle_waits;
    Condition.wait t.work_ready t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    job ();
    worker_loop t
  end

let create ~jobs =
  let size = if jobs <= 1 then 0 else jobs in
  let t =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let default_jobs () = Domain.recommended_domain_count ()

let submit t job =
  if Obs.Probe.on () then Obs.Metrics.incr m_tasks;
  Mutex.lock t.lock;
  Queue.push job t.queue;
  Condition.signal t.work_ready;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let protect f x =
  try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ())

let map_outcomes t f a =
  let n = Array.length a in
  if t.size = 0 || n <= 1 then Array.map (protect f) a
  else begin
    let results = Array.make n None in
    let remaining = ref n in
    let all_done = Condition.create () in
    Array.iteri
      (fun i x ->
        submit t (fun () ->
            let outcome = protect f x in
            Mutex.lock t.lock;
            results.(i) <- Some outcome;
            remaining := !remaining - 1;
            if !remaining = 0 then Condition.broadcast all_done;
            Mutex.unlock t.lock))
      a;
    Mutex.lock t.lock;
    while !remaining > 0 do
      Condition.wait all_done t.lock
    done;
    Mutex.unlock t.lock;
    Array.map (function Some r -> r | None -> assert false) results
  end

let reraise_first outcomes =
  (* Re-raise the exception of the smallest failing index so that a
     parallel run fails exactly like the sequential one would. *)
  Array.iter
    (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    outcomes

let map_array t f a =
  let outcomes = map_outcomes t f a in
  reraise_first outcomes;
  Array.map (function Ok r -> r | Error _ -> assert false) outcomes

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_ordered ~jobs f a = with_pool ~jobs (fun t -> map_array t f a)

let map_outcomes_ordered ~jobs f a =
  with_pool ~jobs (fun t -> map_outcomes t f a)
