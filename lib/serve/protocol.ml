let version = 1

type app_spec = {
  name : string;
  w : float;
  s : float;
  f : float;
  m0 : float;
  c0 : float;
  footprint : float;
}

type query = Stats | Status | Allocs | Job of int

type verb =
  | Submit of app_spec
  | Cancel of int
  | Query of query
  | Subscribe of bool
  | Drain
  | Ping

type request = { rid : int; sid : string option; at : float option; verb : verb }

type error_code =
  | Bad_request
  | Unknown_verb
  | Unsupported_version
  | Overload
  | Draining
  | Unknown_job
  | Timeout
  | Internal

let error_code_name = function
  | Bad_request -> "bad-request"
  | Unknown_verb -> "unknown-verb"
  | Unsupported_version -> "unsupported-version"
  | Overload -> "overload"
  | Draining -> "draining"
  | Unknown_job -> "unknown-job"
  | Timeout -> "timeout"
  | Internal -> "internal"

let error_code_of_name = function
  | "bad-request" -> Some Bad_request
  | "unknown-verb" -> Some Unknown_verb
  | "unsupported-version" -> Some Unsupported_version
  | "overload" -> Some Overload
  | "draining" -> Some Draining
  | "unknown-job" -> Some Unknown_job
  | "timeout" -> Some Timeout
  | "internal" -> Some Internal
  | _ -> None

type job_state = Queued | Running | Done | Cancelled

let job_state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"

let job_state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "cancelled" -> Some Cancelled
  | _ -> None

type job_view = {
  job : int;
  state : job_state;
  procs : float;
  cache : float;
  remaining : float;
  arrival : float;
  finish : float option;
}

type reply =
  | R_submitted of { job : int }
  | R_cancelled of { job : int; was_live : bool }
  | R_job of job_view
  | R_stats of { time : float; clients : int; metrics : Online.Metrics.t }
  | R_status of {
      time : float;
      live : int;
      queued : int;
      running : int;
      clients : int;
      draining : bool;
      recovered : int;
      shed : bool;
      snapshots : int;
    }
  | R_allocs of { time : float; k : float option; jobs : job_view array }
  | R_subscribed of { on : bool }
  | R_drained of { time : float; completed : int }
  | R_pong
  | R_error of {
      code : error_code;
      message : string;
      retry_after : float option;
    }

type response = { rid : int; epoch : int; reply : reply }

type push =
  | P_resolved of { time : float; epoch : int; k : float }
  | P_completed of { time : float; job : int }
  | P_drained of { time : float }

type incoming = Reply of response | Event of push

(* --- UTF-8 validation --------------------------------------------------- *)

(* Strict table-driven check (RFC 3629): rejects overlong forms,
   surrogates and anything past U+10FFFF, so a frame either is UTF-8 or
   dies with a structured error before the JSON parser sees it. *)
let utf8_valid s =
  let n = String.length s in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    let c = Char.code s.[!i] in
    if c < 0x80 then incr i
    else begin
      let len, lo, hi =
        if c >= 0xC2 && c <= 0xDF then (2, 0x80, 0xBF)
        else if c = 0xE0 then (3, 0xA0, 0xBF)
        else if c >= 0xE1 && c <= 0xEC then (3, 0x80, 0xBF)
        else if c = 0xED then (3, 0x80, 0x9F)
        else if c >= 0xEE && c <= 0xEF then (3, 0x80, 0xBF)
        else if c = 0xF0 then (4, 0x90, 0xBF)
        else if c >= 0xF1 && c <= 0xF3 then (4, 0x80, 0xBF)
        else if c = 0xF4 then (4, 0x80, 0x8F)
        else (0, 0, 0)
      in
      if len = 0 || !i + len > n then ok := false
      else begin
        let b1 = Char.code s.[!i + 1] in
        if b1 < lo || b1 > hi then ok := false
        else begin
          let tail_ok = ref true in
          for k = 2 to len - 1 do
            let b = Char.code s.[!i + k] in
            if b < 0x80 || b > 0xBF then tail_ok := false
          done;
          if !tail_ok then i := !i + len else ok := false
        end
      end
    end
  done;
  !ok

(* --- JSON printing ------------------------------------------------------ *)

(* %.17g round-trips an IEEE-754 double exactly (the repo-wide
   convention, same as the campaign journal). *)
let add_float b v = Buffer.add_string b (Printf.sprintf "%.17g" v)
let add_int b v = Buffer.add_string b (string_of_int v)

type field = F of string * (Buffer.t -> unit) | Skip

let add_obj b fields =
  Buffer.add_char b '{';
  let first = ref true in
  List.iter
    (function
      | Skip -> ()
      | F (k, v) ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Obs.Trace_json.add_escaped b k;
        Buffer.add_char b ':';
        v b)
    fields;
  Buffer.add_char b '}'

let fstr s b = Obs.Trace_json.add_escaped b s
let fnum v b = add_float b v
let fint v b = add_int b v
let fbool v b = Buffer.add_string b (if v then "true" else "false")
let fopt v = match v with None -> Skip | Some (k, f) -> F (k, f)

let app_fields (a : app_spec) b =
  add_obj b
    [
      F ("name", fstr a.name);
      F ("w", fnum a.w);
      F ("s", fnum a.s);
      F ("f", fnum a.f);
      F ("m0", fnum a.m0);
      F ("c0", fnum a.c0);
      (* Infinity is not JSON; an absent footprint means "larger than
         any cache", the model's own default. *)
      fopt
        (if Float.is_finite a.footprint then
           Some ("footprint", fnum a.footprint)
         else None);
    ]

let encode_request (r : request) =
  let b = Buffer.create 128 in
  let at = fopt (Option.map (fun t -> ("at", fnum t)) r.at) in
  let sid = fopt (Option.map (fun s -> ("sid", fstr s)) r.sid) in
  (match r.verb with
  | Submit app ->
    add_obj b
      [
        F ("v", fint version); F ("id", fint r.rid); sid;
        F ("verb", fstr "submit"); at; F ("app", app_fields app);
      ]
  | Cancel job ->
    add_obj b
      [
        F ("v", fint version); F ("id", fint r.rid); sid;
        F ("verb", fstr "cancel"); at; F ("job", fint job);
      ]
  | Query q ->
    let what, job =
      match q with
      | Stats -> ("stats", Skip)
      | Status -> ("status", Skip)
      | Allocs -> ("allocs", Skip)
      | Job id -> ("job", F ("job", fint id))
    in
    add_obj b
      [
        F ("v", fint version); F ("id", fint r.rid); sid;
        F ("verb", fstr "query"); at; F ("what", fstr what); job;
      ]
  | Subscribe on ->
    add_obj b
      [
        F ("v", fint version); F ("id", fint r.rid); sid;
        F ("verb", fstr "subscribe"); at; F ("on", fbool on);
      ]
  | Drain ->
    add_obj b
      [
        F ("v", fint version); F ("id", fint r.rid); sid;
        F ("verb", fstr "drain"); at;
      ]
  | Ping ->
    add_obj b
      [
        F ("v", fint version); F ("id", fint r.rid); sid;
        F ("verb", fstr "ping"); at;
      ]);
  Buffer.contents b

let job_view_fields (j : job_view) b =
  add_obj b
    [
      F ("job", fint j.job);
      F ("state", fstr (job_state_name j.state));
      F ("procs", fnum j.procs);
      F ("cache", fnum j.cache);
      F ("remaining", fnum j.remaining);
      F ("arrival", fnum j.arrival);
      fopt (Option.map (fun t -> ("finish", fnum t)) j.finish);
    ]

let metrics_fields (m : Online.Metrics.t) b =
  (* Online.Metrics.to_json is the canonical flat rendering (and the one
     BENCH_online.json records); splice it rather than re-listing the
     fields here. *)
  Buffer.add_string b (Online.Metrics.to_json m)

let encode_response (r : response) =
  let b = Buffer.create 256 in
  let head rest =
    add_obj b
      ([
         F ("v", fint version); F ("id", fint r.rid); F ("epoch", fint r.epoch);
         F ("ok", fbool (match r.reply with R_error _ -> false | _ -> true));
       ]
      @ rest)
  in
  (match r.reply with
  | R_submitted { job } -> head [ F ("reply", fstr "submitted"); F ("job", fint job) ]
  | R_cancelled { job; was_live } ->
    head
      [
        F ("reply", fstr "cancelled"); F ("job", fint job);
        F ("was_live", fbool was_live);
      ]
  | R_job j -> head [ F ("reply", fstr "job"); F ("job", job_view_fields j) ]
  | R_stats { time; clients; metrics } ->
    head
      [
        F ("reply", fstr "stats"); F ("time", fnum time);
        F ("clients", fint clients); F ("metrics", metrics_fields metrics);
      ]
  | R_status
      {
        time; live; queued; running; clients; draining; recovered; shed;
        snapshots;
      } ->
    head
      [
        F ("reply", fstr "status"); F ("time", fnum time); F ("live", fint live);
        F ("queued", fint queued); F ("running", fint running);
        F ("clients", fint clients); F ("draining", fbool draining);
        F ("recovered", fint recovered); F ("shed", fbool shed);
        F ("snapshots", fint snapshots);
      ]
  | R_allocs { time; k; jobs } ->
    head
      [
        F ("reply", fstr "allocs"); F ("time", fnum time);
        fopt (Option.map (fun k -> ("k", fnum k)) k);
        F
          ( "jobs",
            fun b ->
              Buffer.add_char b '[';
              Array.iteri
                (fun i j ->
                  if i > 0 then Buffer.add_char b ',';
                  job_view_fields j b)
                jobs;
              Buffer.add_char b ']' );
      ]
  | R_subscribed { on } ->
    head [ F ("reply", fstr "subscribed"); F ("on", fbool on) ]
  | R_drained { time; completed } ->
    head
      [
        F ("reply", fstr "drained"); F ("time", fnum time);
        F ("completed", fint completed);
      ]
  | R_pong -> head [ F ("reply", fstr "pong") ]
  | R_error { code; message; retry_after } ->
    head
      [
        F ("reply", fstr "error"); F ("code", fstr (error_code_name code));
        F ("message", fstr message);
        fopt (Option.map (fun t -> ("retry_after", fnum t)) retry_after);
      ]);
  Buffer.contents b

let encode_push (p : push) =
  let b = Buffer.create 96 in
  (match p with
  | P_resolved { time; epoch; k } ->
    add_obj b
      [
        F ("v", fint version); F ("event", fstr "resolved");
        F ("time", fnum time); F ("epoch", fint epoch); F ("k", fnum k);
      ]
  | P_completed { time; job } ->
    add_obj b
      [
        F ("v", fint version); F ("event", fstr "completed");
        F ("time", fnum time); F ("job", fint job);
      ]
  | P_drained { time } ->
    add_obj b
      [ F ("v", fint version); F ("event", fstr "drained"); F ("time", fnum time) ]);
  Buffer.contents b

(* --- JSON decoding ------------------------------------------------------ *)

exception Bad of error_code * string

let fail code fmt = Printf.ksprintf (fun m -> raise (Bad (code, m))) fmt

open Obs.Trace_json

let parse_doc payload =
  if not (utf8_valid payload) then
    fail Bad_request "frame payload is not valid UTF-8";
  match parse payload with
  | j -> j
  | exception Failure m -> fail Bad_request "malformed JSON: %s" m

let get name j =
  match member name j with
  | Some v -> v
  | None -> fail Bad_request "missing field %S" name

let get_float name j =
  match get name j with
  | Num v -> v
  | _ -> fail Bad_request "field %S must be a number" name

let get_int name j =
  let v = get_float name j in
  if Float.is_integer v && Float.abs v <= 2. ** 53. then int_of_float v
  else fail Bad_request "field %S must be an integer" name

let get_string name j =
  match get name j with
  | Str s -> s
  | _ -> fail Bad_request "field %S must be a string" name

let get_bool name j =
  match get name j with
  | Bool v -> v
  | _ -> fail Bad_request "field %S must be a boolean" name

let opt_float name j =
  match member name j with
  | None -> None
  | Some (Num v) -> Some v
  | Some _ -> fail Bad_request "field %S must be a number" name

let opt_string name j =
  match member name j with
  | None -> None
  | Some (Str s) -> Some s
  | Some _ -> fail Bad_request "field %S must be a string" name

let check_version j =
  match member "v" j with
  | None -> fail Bad_request "missing protocol version field \"v\""
  | Some (Num v) when v = float_of_int version -> ()
  | Some (Num v) -> fail Unsupported_version "protocol version %g not supported" v
  | Some _ -> fail Bad_request "field \"v\" must be a number"

let app_of_json j =
  {
    name = get_string "name" j;
    w = get_float "w" j;
    s = get_float "s" j;
    f = get_float "f" j;
    m0 = get_float "m0" j;
    c0 = get_float "c0" j;
    footprint = (match opt_float "footprint" j with Some v -> v | None -> infinity);
  }

let decode_request payload =
  match
    let j = parse_doc payload in
    (match j with Obj _ -> () | _ -> fail Bad_request "frame must be a JSON object");
    check_version j;
    let rid = get_int "id" j in
    let sid = opt_string "sid" j in
    let at = opt_float "at" j in
    let verb =
      match get_string "verb" j with
      | "submit" -> Submit (app_of_json (get "app" j))
      | "cancel" -> Cancel (get_int "job" j)
      | "query" -> (
        match get_string "what" j with
        | "stats" -> Query Stats
        | "status" -> Query Status
        | "allocs" -> Query Allocs
        | "job" -> Query (Job (get_int "job" j))
        | w -> fail Bad_request "unknown query %S" w)
      | "subscribe" -> Subscribe (get_bool "on" j)
      | "drain" -> Drain
      | "ping" -> Ping
      | v -> fail Unknown_verb "unknown verb %S" v
    in
    { rid; sid; at; verb }
  with
  | r -> Ok r
  | exception Bad (code, msg) -> Error (code, msg)

let metrics_of_json j : Online.Metrics.t =
  {
    jobs = get_int "jobs" j;
    completed = get_int "completed" j;
    cancelled = get_int "cancelled" j;
    events = get_int "events" j;
    resolves = get_int "resolves" j;
    forced_resolves = get_int "forced_resolves" j;
    migrations = get_int "migrations" j;
    solver_iters = get_int "solver_iters" j;
    partition_ops = get_int "partition_ops" j;
    warm_hits = get_int "warm_hits" j;
    cold_fallbacks = get_int "cold_fallbacks" j;
    makespan = get_float "makespan" j;
    mean_response = get_float "mean_response" j;
    max_response = get_float "max_response" j;
    mean_stretch = get_float "mean_stretch" j;
    max_stretch = get_float "max_stretch" j;
    utilization = get_float "utilization" j;
  }

let job_view_of_json j =
  {
    job = get_int "job" j;
    state =
      (let s = get_string "state" j in
       match job_state_of_name s with
       | Some st -> st
       | None -> fail Bad_request "unknown job state %S" s);
    procs = get_float "procs" j;
    cache = get_float "cache" j;
    remaining = get_float "remaining" j;
    arrival = get_float "arrival" j;
    finish = opt_float "finish" j;
  }

let reply_of_json j =
  match get_string "reply" j with
  | "submitted" -> R_submitted { job = get_int "job" j }
  | "cancelled" ->
    R_cancelled { job = get_int "job" j; was_live = get_bool "was_live" j }
  | "job" -> R_job (job_view_of_json (get "job" j))
  | "stats" ->
    R_stats
      {
        time = get_float "time" j;
        clients = get_int "clients" j;
        metrics = metrics_of_json (get "metrics" j);
      }
  | "status" ->
    R_status
      {
        time = get_float "time" j;
        live = get_int "live" j;
        queued = get_int "queued" j;
        running = get_int "running" j;
        clients = get_int "clients" j;
        draining = get_bool "draining" j;
        recovered = get_int "recovered" j;
        shed = get_bool "shed" j;
        snapshots = get_int "snapshots" j;
      }
  | "allocs" ->
    R_allocs
      {
        time = get_float "time" j;
        k = opt_float "k" j;
        jobs =
          (match get "jobs" j with
          | List l -> Array.of_list (List.map job_view_of_json l)
          | _ -> fail Bad_request "field \"jobs\" must be an array");
      }
  | "subscribed" -> R_subscribed { on = get_bool "on" j }
  | "drained" ->
    R_drained { time = get_float "time" j; completed = get_int "completed" j }
  | "pong" -> R_pong
  | "error" ->
    R_error
      {
        code =
          (let c = get_string "code" j in
           match error_code_of_name c with
           | Some code -> code
           | None -> fail Bad_request "unknown error code %S" c);
        message = get_string "message" j;
        retry_after = opt_float "retry_after" j;
      }
  | r -> fail Bad_request "unknown reply kind %S" r

let push_of_json j =
  match get_string "event" j with
  | "resolved" ->
    P_resolved
      { time = get_float "time" j; epoch = get_int "epoch" j; k = get_float "k" j }
  | "completed" ->
    P_completed { time = get_float "time" j; job = get_int "job" j }
  | "drained" -> P_drained { time = get_float "time" j }
  | e -> fail Bad_request "unknown event %S" e

let decode_incoming payload =
  match
    let j = parse_doc payload in
    (match j with Obj _ -> () | _ -> fail Bad_request "frame must be a JSON object");
    check_version j;
    match member "event" j with
    | Some _ -> Event (push_of_json j)
    | None ->
      Reply { rid = get_int "id" j; epoch = get_int "epoch" j; reply = reply_of_json j }
  with
  | r -> Ok r
  | exception Bad (code, msg) -> Error (code, msg)
