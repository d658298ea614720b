type t = {
  queue : handler Event_queue.t;
  mutable clock : float;
  mutable processed : int;
}

and handler = t -> unit

let create () = { queue = Event_queue.create (); clock = 0.; processed = 0 }
let now t = t.clock

let schedule t ~at handler =
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  if at < t.clock then invalid_arg "Engine.schedule: cannot schedule in the past";
  Event_queue.push t.queue ~time:at handler

let schedule_after t ~delay handler =
  if not (delay >= 0.) then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) handler

let run ?until t =
  let horizon = Option.value ~default:infinity until in
  let rec loop () =
    match Event_queue.peek t.queue with
    | None -> ()
    | Some (time, _) when time > horizon -> t.clock <- horizon
    | Some _ ->
      (match Event_queue.pop t.queue with
      | None -> ()
      | Some (time, handler) ->
        t.clock <- time;
        t.processed <- t.processed + 1;
        handler t);
      loop ()
  in
  loop ()

let advance_to t ~to_ =
  if Float.is_nan to_ then invalid_arg "Engine.advance_to: NaN time";
  run ~until:to_ t;
  (* [run ~until] only moves the clock when an event beyond the horizon
     remains queued; a stepwise driver needs the clock at [to_] even
     when the queue ran dry, so later relative schedules anchor at the
     driver's notion of now. *)
  if to_ > t.clock then t.clock <- to_

let clear t = Event_queue.clear t.queue
let events_processed t = t.processed
let pending t = Event_queue.length t.queue
let next_time t = Option.map fst (Event_queue.peek t.queue)
