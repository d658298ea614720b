(* The traced run's span collector: preallocated columns, filled from
   the benchmark's own files around calls into each layer, written out
   as a Chrome trace when the run ends.  A span past capacity is
   counted as dropped, never silently lost. *)

type t = {
  name : string array;
  t0 : float array;  (* microseconds on the Obs.Clock timeline *)
  t1 : float array;
  parent : int array;  (* index of the causing span, or -1 *)
  rid : int array;  (* request or event id, or -1 *)
  tid : int array;  (* display row: client slot, replay, ... *)
  mutable n : int;
  mutable dropped : int;
}

let create cap =
  {
    name = Array.make cap "";
    t0 = Array.make cap 0.;
    t1 = Array.make cap 0.;
    parent = Array.make cap (-1);
    rid = Array.make cap (-1);
    tid = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

(* Record a finished span; returns its index (for children) or -1 when
   the collector is full. *)
let add t ~name ?(parent = -1) ?(rid = -1) ?(tid = 0) ~t0 ~t1 () =
  if t.n = Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.name.(i) <- name;
    t.t0.(i) <- t0;
    t.t1.(i) <- t1;
    t.parent.(i) <- parent;
    t.rid.(i) <- rid;
    t.tid.(i) <- tid;
    t.n <- i + 1;
    i
  end

let us_of_ns ns = Int64.to_float ns /. 1e3

(* Spans of the library's own probes (Obs.Span), exported beside ours
   under a second pid so both timelines line up. *)
let to_chrome ?(lib = [||]) t =
  let b = Buffer.create (1 lsl 16) in
  let origin =
    let m = ref infinity in
    for i = 0 to t.n - 1 do
      m := Float.min !m t.t0.(i)
    done;
    Array.iter (fun (e : Obs.Span.event) -> m := Float.min !m e.ts_us) lib;
    if Float.is_finite !m then !m else 0.
  in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let event ~name ~ts ~dur ~pid ~tid ~args =
    if not !first then Buffer.add_char b ',';
    first := false;
    Printf.bprintf b
      "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":%s}"
      (Out.escape name) (ts -. origin) (Float.max 0. dur) pid tid (Out.obj args)
  in
  for i = 0 to t.n - 1 do
    event ~name:t.name.(i) ~ts:t.t0.(i) ~dur:(t.t1.(i) -. t.t0.(i)) ~pid:1 ~tid:t.tid.(i)
      ~args:
        [
          ("span", string_of_int i);
          ("parent", string_of_int t.parent.(i));
          ("rid", string_of_int t.rid.(i));
        ]
  done;
  Array.iter
    (fun (e : Obs.Span.event) ->
      event ~name:e.name ~ts:e.ts_us ~dur:e.dur_us ~pid:2 ~tid:e.tid
        ~args:(List.map (fun (k, v) -> (k, Out.escape v)) e.args))
    lib;
  Printf.bprintf b "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%d}}"
    (t.dropped + Obs.Span.dropped ());
  Buffer.contents b

(* Validate, then write atomically; returns the number of events. *)
let write ?lib t ~path =
  let s = to_chrome ?lib t in
  let n = Obs.Trace_json.validate_chrome s in
  Obs.Trace_json.write ~path s;
  n

let dropped t = t.dropped + Obs.Span.dropped ()
