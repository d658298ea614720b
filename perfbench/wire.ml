(* wire-mixed: a forked production daemon (journal, snapshot
   generations, Batched 32) driven over its Unix socket by one client
   that keeps eight requests in flight.  The mix — 40% submit, 40%
   cancel of the oldest live job, 15% job query, 5% status — holds the
   live set near the pre-populated 1 000 jobs, so framing, protocol,
   journal and backend dispatch dominate and each re-solve stays small.

   The traced run records the daemon's request/response bytes and
   replays them in-process through the same public calls the daemon
   makes (Frame, Protocol, Backend.handle, Online.Service), timing each
   layer; the replayed responses must equal the daemon's byte for
   byte. *)

open Serve

let in_flight = 8
let setups = 11
let prepop (c : Cfg.t) = if c.tiny then 100 else 1000

(* Requests replayed in-process by the traced run: the pre-population
   plus a prefix of the traffic, enough for stable layer means. *)
let replay_len (c : Cfg.t) = prepop c + if c.tiny then 300 else 20_000

(* The daemon keeps every retired job, so its resident set grows with
   the requests served.  Its high-water mark is read after a fixed
   number of traffic replies, so it measures memory per unit of work
   and does not rise when throughput does. *)
let rss_after (c : Cfg.t) = if c.tiny then 300 else 30_000

(* Throughput and p50 are medians over one-second windows of the timed
   phase (Host.windowed), so a few seconds of host stall do not move
   them; p99 is over the whole phase. *)
let window = 1.

(* --- generated traffic --------------------------------------------- *)

type expect =
  | E_submitted of int
  | E_cancelled of int
  | E_job of int
  | E_status of int
  | E_pong

type kind = K_submit | K_cancel | K_job | K_status

(* One shuffled block of twenty requests: eight submits and eight
   cancels keep the live set within eight of its starting size. *)
let block =
  Array.concat
    [ Array.make 8 K_submit; Array.make 8 K_cancel; Array.make 3 K_job; [| K_status |] ]

type gen = {
  rng : Util.Rng.t;
  next_app : unit -> Model.App.t;
  mutable submitted : int;  (* = the id the daemon assigns the next submit *)
  mutable cancelled : int;  (* = the oldest live id *)
  order : kind array;
  mutable order_i : int;
  prepop : int;
}

let gen ~seed ~prepop =
  let rng = Util.Rng.create seed in
  {
    rng;
    next_app = Host.app_stream (Util.Rng.split rng);
    submitted = 0;
    cancelled = 0;
    order = Array.copy block;
    order_i = Array.length block;
    prepop;
  }

let spec (a : Model.App.t) =
  { Protocol.name = a.name; w = a.w; s = a.s; f = a.f; m0 = a.m0; c0 = a.c0; footprint = a.footprint }

let live g = g.submitted - g.cancelled

(* Requests are answered in order on one connection, so every id and
   live count below is known when the request is generated: the
   sequence depends on the seed alone, not on reply timing. *)
let next g =
  let kind =
    if g.submitted < g.prepop then K_submit
    else begin
      if g.order_i = Array.length g.order then begin
        Util.Rng.shuffle g.rng g.order;
        g.order_i <- 0
      end;
      g.order_i <- g.order_i + 1;
      g.order.(g.order_i - 1)
    end
  in
  match kind with
  | K_submit ->
    g.submitted <- g.submitted + 1;
    (Protocol.Submit (spec (g.next_app ())), E_submitted (g.submitted - 1))
  | K_cancel ->
    g.cancelled <- g.cancelled + 1;
    (Protocol.Cancel (g.cancelled - 1), E_cancelled (g.cancelled - 1))
  | K_job ->
    let id = g.cancelled + Util.Rng.int g.rng (live g) in
    (Protocol.Query (Protocol.Job id), E_job id)
  | K_status -> (Protocol.Query Protocol.Status, E_status (live g))

let expected expect (r : Protocol.response) =
  match (expect, r.reply) with
  | E_submitted id, Protocol.R_submitted { job } -> job = id
  | E_cancelled id, Protocol.R_cancelled { job; was_live } -> job = id && was_live
  | E_job id, Protocol.R_job v -> v.job = id && (v.state = Queued || v.state = Running)
  | E_status n, Protocol.R_status s -> s.live = n
  | E_pong, Protocol.R_pong -> true
  | _ -> false

(* --- one client connection ----------------------------------------- *)

type conn = { fd : Unix.file_descr; dec : Frame.decoder; buf : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; dec = Frame.decoder (); buf = Bytes.create 65536 }

let send c payload =
  let s = Frame.encode payload in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let rec recv c =
  match Frame.next c.dec with
  | `Frame p -> p
  | `Error e -> failwith ("wire: bad frame from daemon: " ^ e)
  | `Await ->
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then failwith "wire: daemon closed the connection";
    Frame.feed c.dec (Bytes.sub_string c.buf 0 n);
    recv c

type tally = {
  mutable posted : int;
  mutable replies : int;
  mutable errors : int;  (* R_error replies *)
  mutable wrong : int;  (* replies that contradict the client's bookkeeping *)
  lat : Host.Samples.t;  (* post -> matching reply, ms *)
}

let tally () = { posted = 0; replies = 0; errors = 0; wrong = 0; lat = Host.Samples.create () }

type session = {
  conn : conn;
  g : gen;
  mutable rid : int;
  mutable log : (string * string) list;  (* recorded (request, response), newest first *)
  mutable log_left : int;
  mutable drop_next : bool;  (* fault injection: lose one reply *)
}

type pending = { prid : int; t_post : int64; expect : expect; payload : string }

(* Closed loop: keep [in_flight] requests posted, post the next one as
   each reply arrives, until [stop] holds; then collect the tail. *)
let pump s (t : tally) ~next ~stop ?(on_reply = fun _ _ -> ()) () =
  let q = Queue.create () in
  let post () =
    let verb, expect = next () in
    let prid = s.rid in
    s.rid <- prid + 1;
    let payload = Protocol.encode_request { rid = prid; sid = None; at = None; verb } in
    let t_post = Host.now_ns () in
    send s.conn payload;
    t.posted <- t.posted + 1;
    Queue.push { prid; t_post; expect; payload } q
  in
  let rec fill k = if k > 0 && not (stop ()) then (post (); fill (k - 1)) in
  fill in_flight;
  while not (Queue.is_empty q) do
    let resp = recv s.conn in
    let t_reply = Host.now_ns () in
    let p = Queue.pop q in
    if s.drop_next then s.drop_next <- false
    else begin
      t.replies <- t.replies + 1;
      Host.Samples.add t.lat (Int64.to_float (Int64.sub t_reply p.t_post) /. 1e6);
      (match Protocol.decode_incoming resp with
      | Ok (Protocol.Reply r) when r.rid = p.prid -> (
        match r.reply with
        | Protocol.R_error _ -> t.errors <- t.errors + 1
        | _ -> if not (expected p.expect r) then t.wrong <- t.wrong + 1)
      | _ -> t.wrong <- t.wrong + 1);
      if s.log_left > 0 then begin
        s.log <- (p.payload, resp) :: s.log;
        s.log_left <- s.log_left - 1
      end;
      on_reply p t_reply
    end;
    if not (stop ()) then post ()
  done

(* --- the daemon ------------------------------------------------------ *)

let service = { Online.Service.default_config with policy = Online.Policy.Batched 32 }

(* The production configuration: the CLI's defaults plus a journal and
   snapshot generations every 256 mutations. *)
let backend_config ?journal ?snapshot () =
  { Backend.default_config with service; journal; snapshot; snapshot_every = 256 }

type daemon = { pid : int; dir : string; s : session; setup_s : float; setup_tally : tally }

let start_daemon config =
  let r, w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       Daemon.run ~on_ready:(fun () -> ignore (Unix.write_substring w "R" 0 1 : int)) config
     with e -> prerr_endline ("perfbench daemon: " ^ Printexc.to_string e));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ready =
      match Unix.select [ r ] [] [] 60. with
      | [ _ ], _, _ -> Unix.read r (Bytes.create 1) 0 1 = 1
      | _ -> false
    in
    Unix.close r;
    if not ready then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "wire: daemon did not signal readiness"
    end;
    pid

let stop_daemon d =
  (try Unix.close d.s.conn.fd with Unix.Unix_error _ -> ());
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  Host.rm_rf d.dir

(* Set-up: fork the daemon, wait for [on_ready], connect, and submit
   the initial live set over the wire. *)
let setup (c : Cfg.t) ~dir ~record =
  Host.fresh_dir dir;
  let socket = Filename.concat dir "d.sock" in
  let config =
    {
      Daemon.default_config with
      backend =
        backend_config
          ~journal:(Filename.concat dir "journal.jsonl")
          ~snapshot:(Filename.concat dir "snapshot") ();
      socket;
    }
  in
  let t0 = Host.now_ns () in
  let pid = start_daemon config in
  match
    let s =
      {
        conn = connect socket;
        g = gen ~seed:c.seed ~prepop:(prepop c);
        rid = 1;
        log = [];
        log_left = (if record then replay_len c else 0);
        drop_next = false;
      }
    in
    let t = tally () in
    pump s t ~next:(fun () -> next s.g) ~stop:(fun () -> s.g.submitted >= s.g.prepop) ();
    (s, t)
  with
  | s, t -> { pid; dir; s; setup_s = Host.s_since t0; setup_tally = t }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let final_live d =
  let c = d.s.conn in
  let rid = d.s.rid in
  d.s.rid <- rid + 1;
  send c (Protocol.encode_request { rid; sid = None; at = None; verb = Protocol.Query Protocol.Status });
  match Protocol.decode_incoming (recv c) with
  | Ok (Protocol.Reply { rid = r; reply = Protocol.R_status { live; _ }; _ }) when r = rid -> Some live
  | _ -> None

(* Operations that failed: error replies plus replies never received. *)
let failed_of ts = List.fold_left (fun a t -> a + t.errors + t.posted - t.replies) 0 ts

let checks_of (c : Cfg.t) d (ts : tally list) =
  let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
  let expected_live = live d.s.g + if Cfg.injected c "live-count" then 1 else 0 in
  let final = final_live d in
  [
    (sum (fun t -> t.errors) = 0, Printf.sprintf "%d error replies" (sum (fun t -> t.errors)));
    ( sum (fun t -> t.replies) = sum (fun t -> t.posted),
      Printf.sprintf "%d requests posted, %d replies" (sum (fun t -> t.posted))
        (sum (fun t -> t.replies)) );
    (sum (fun t -> t.wrong) = 0, Printf.sprintf "%d replies contradict the client's bookkeeping" (sum (fun t -> t.wrong)));
    ( final = Some expected_live,
      Printf.sprintf "daemon live count %s, client bookkeeping %d"
        (match final with Some n -> string_of_int n | None -> "unreadable")
        expected_live );
  ]

let throughput (t : tally) secs = float_of_int t.replies /. secs

(* --- untraced run: the end-to-end metrics ---------------------------- *)

let e2e (c : Cfg.t) =
  let dir = Filename.concat c.out_dir "wire-mixed" in
  let times = Array.make setups 0. in
  for i = 0 to setups - 2 do
    let d = setup c ~dir ~record:false in
    times.(i) <- d.setup_s;
    stop_daemon d
  done;
  let d = setup c ~dir ~record:false in
  times.(setups - 1) <- d.setup_s;
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let t = tally () in
  if Cfg.injected c "drop-reply" then d.s.drop_next <- true;
  let rss = ref None in
  let stamps = Host.Samples.create () in
  let t0 = Host.now_ns () in
  pump d.s t ~next:(fun () -> next d.s.g) ~stop:(Host.for_seconds c.seconds)
    ~on_reply:(fun _ t_reply ->
      Host.Samples.add stamps (Int64.to_float (Int64.sub t_reply t0) /. 1e9);
      if t.replies = rss_after c then rss := Some (Host.peak_rss_mb d.pid))
    ();
  let secs = Host.s_since t0 in
  let checks = checks_of c d [ d.setup_tally; t ] in
  let rss, rss_note =
    match !rss with
    | Some mb -> (mb, [])
    | None -> (Host.peak_rss_mb d.pid, [ "peak RSS read at the end: fewer replies than the fixed point" ])
  in
  let lat = Host.Samples.to_array t.lat in
  let rate, p50, windows = Host.windowed ~window ~secs (Host.Samples.to_array stamps) lat in
  Out.make ~checks ~attempted:t.posted ~failed:(failed_of [ d.setup_tally; t ])
    ~metrics:
      [
        Out.metric "setup_s" "s" (Host.median times);
        Out.metric "throughput_per_s" "1/s" rate;
        Out.metric "latency_p50_ms" "ms" p50;
        Out.metric "latency_p99_ms" "ms" (Host.quantile lat 0.99);
        Out.metric "peak_rss_mb" "MB" rss;
      ]
    ~samples:
      [
        ("setup_s", setups);
        ("throughput_per_s.windows", windows);
        ("latency_p50_ms", Array.length lat);
        ("latency_p50_ms.windows", windows);
        ("latency_p99_ms", Array.length lat);
        ("latency_p99_ms.beyond", Host.beyond_p99 (Array.length lat));
      ]
    ~notes:rss_note

(* --- traced run: the per-layer metrics ------------------------------- *)

type replay = {
  handle : float array;  (* per request, us *)
  frame : float;  (* summed over requests, us *)
  decode : float;
  encode : float;
  mismatches : int;  (* responses that differ from the daemon's bytes *)
  resolves : int;
  snapshots : int;
  mutations : int;
  journal_bytes : int;
}

let is_mutation (r : Protocol.request) =
  match r.verb with Protocol.Submit _ | Protocol.Cancel _ -> true | _ -> false

(* Replay the recorded requests through the calls the daemon makes per
   request: frame decode, protocol decode, Backend.handle (plus the
   notice hand-off), protocol encode, frame encode. *)
let replay ?spans ~config log =
  let b = Backend.create config in
  let dec = Frame.decoder () in
  let n = Array.length log in
  let handle = Array.make n 0. in
  let frame = ref 0. and decode = ref 0. and encode = ref 0. in
  let mismatches = ref 0 and resolves = ref 0 and mutations = ref 0 in
  Array.iteri
    (fun i (req, resp) ->
      let framed = Frame.encode req in
      let epoch = Backend.epoch b in
      let t0 = Host.now_ns () in
      Frame.feed dec framed;
      let payload = match Frame.next dec with `Frame p -> p | _ -> failwith "replay: framing" in
      let t1 = Host.now_ns () in
      let r = match Protocol.decode_request payload with Ok r -> r | Error _ -> failwith "replay: decode" in
      let t2 = Host.now_ns () in
      let reply = Backend.handle b ~clients:1 r in
      ignore (Backend.take_notices b : Online.Service.notice list);
      let t3 = Host.now_ns () in
      let s = Protocol.encode_response reply in
      let t4 = Host.now_ns () in
      ignore (Frame.encode s : string);
      let t5 = Host.now_ns () in
      let d a b = Int64.to_float (Int64.sub b a) /. 1e3 in
      frame := !frame +. d t0 t1 +. d t4 t5;
      decode := !decode +. d t1 t2;
      handle.(i) <- d t2 t3;
      encode := !encode +. d t3 t4;
      if s <> resp then incr mismatches;
      if Backend.epoch b <> epoch then incr resolves;
      if is_mutation r then incr mutations;
      match spans with
      | None -> ()
      | Some sp ->
        let us = Spans.us_of_ns in
        let root = Spans.add sp ~name:"serve.request" ~rid:r.rid ~tid:100 ~t0:(us t0) ~t1:(us t5) () in
        let child name a b = ignore (Spans.add sp ~name ~parent:root ~rid:r.rid ~tid:100 ~t0:(us a) ~t1:(us b) () : int) in
        child "serve.frame.decode" t0 t1;
        child "serve.protocol.decode" t1 t2;
        child "serve.backend.handle" t2 t3;
        child "serve.protocol.encode" t3 t4;
        child "serve.frame.encode" t4 t5)
    log;
  let journal_bytes =
    match config.journal with
    | Some p when Sys.file_exists p -> (Unix.stat p).st_size
    | _ -> 0
  in
  {
    handle;
    frame = !frame;
    decode = !decode;
    encode = !encode;
    mismatches = !mismatches;
    resolves = !resolves;
    snapshots = Backend.snapshots_written b;
    mutations = !mutations;
    journal_bytes;
  }

(* The same timeline straight on the live core: submits and cancels at
   the daemon's model time, queries skipped.  Mean us per mutation. *)
let replay_online log =
  let lv = Online.Service.live_create ~config:service ~platform:Model.Platform.paper_default () in
  let times = Host.Samples.create () in
  Array.iter
    (fun (req, _) ->
      match Protocol.decode_request req with
      | Ok { verb = Protocol.Submit a; _ } ->
        let app =
          Model.App.make ~name:a.name ~s:a.s ~footprint:a.footprint ~c0:a.c0 ~w:a.w ~f:a.f
            ~m0:a.m0 ()
        in
        let t0 = Host.now_ns () in
        ignore (Online.Service.submit lv ~at:(Online.Service.live_now lv) app : Online.State.job);
        Host.Samples.add times (Host.us_since t0)
      | Ok { verb = Protocol.Cancel id; _ } ->
        let t0 = Host.now_ns () in
        ignore (Online.Service.cancel lv ~at:(Online.Service.live_now lv) ~id : bool);
        Host.Samples.add times (Host.us_since t0)
      | _ -> ())
    log;
  Host.mean (Host.Samples.to_array times)

(* The load generator's own calls per request, which share the CPU
   with the daemon: encode and frame the request, unframe and decode the
   reply, as [pump] does.  Mean us per request. *)
let client_us log =
  let reqs =
    Array.map
      (fun (req, resp) ->
        match Protocol.decode_request req with
        | Ok r -> (r, Frame.encode resp)
        | Error _ -> failwith "client replay: decode")
      log
  in
  let dec = Frame.decoder () in
  let t0 = Host.now_ns () in
  Array.iter
    (fun ((r : Protocol.request), framed) ->
      ignore (Frame.encode (Protocol.encode_request r) : string);
      Frame.feed dec framed;
      match Frame.next dec with
      | `Frame p -> ignore (Protocol.decode_incoming p : (Protocol.incoming, Protocol.error_code * string) result)
      | _ -> failwith "client replay: framing")
    reqs;
  Host.us_since t0 /. float_of_int (max 1 (Array.length reqs))

(* In-process cost of one ping through the client's and the daemon's
   calls, subtracted from the ping flood to leave the transport cost. *)
let ping_inproc_us n =
  let b = Backend.create (backend_config ()) in
  let dec = Frame.decoder () and client_dec = Frame.decoder () in
  let t0 = Host.now_ns () in
  for rid = 1 to n do
    Frame.feed dec (Frame.encode (Protocol.encode_request { rid; sid = None; at = None; verb = Protocol.Ping }));
    match Frame.next dec with
    | `Frame p -> (
      match Protocol.decode_request p with
      | Ok r -> (
        Frame.feed client_dec (Frame.encode (Protocol.encode_response (Backend.handle b ~clients:1 r)));
        match Frame.next client_dec with
        | `Frame p -> ignore (Protocol.decode_incoming p : (Protocol.incoming, Protocol.error_code * string) result)
        | _ -> failwith "pong frame")
      | Error _ -> failwith "ping decode")
    | _ -> failwith "ping frame"
  done;
  Host.us_since t0 /. float_of_int n

let traced (c : Cfg.t) =
  let dir = Filename.concat c.out_dir "wire-mixed" in
  let spans = Spans.create (1 lsl 20) in
  let d = setup c ~dir ~record:true in
  let phases =
    Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
    (* Untraced slices give the reference per-request time; traced
       slices add one client span per request, post to reply. *)
    let ta = tally () and tb = tally () in
    let secs_a, secs_b =
      Host.alternate ~secs:c.seconds
        ~untraced:(fun stop -> pump d.s ta ~next:(fun () -> next d.s.g) ~stop ())
        ~traced:(fun stop ->
          pump d.s tb ~next:(fun () -> next d.s.g) ~stop
            ~on_reply:(fun p t_reply ->
              ignore
                (Spans.add spans ~name:"wire.request" ~rid:p.prid ~tid:(p.prid mod in_flight)
                   ~t0:(Spans.us_of_ns p.t_post) ~t1:(Spans.us_of_ns t_reply) ()
                  : int))
            ())
    in
    let thr_a = throughput ta secs_a and thr_b = throughput tb secs_b in
    (* Ping flood: the socket and event-loop cost with a trivial handler. *)
    let tp = tally () in
    let t0 = Host.now_ns () in
    pump d.s tp ~next:(fun () -> (Protocol.Ping, E_pong)) ~stop:(Host.for_seconds (if c.tiny then 0.2 else 1.)) ();
    let thr_ping = throughput tp (Host.s_since t0) in
    let ts = [ d.setup_tally; ta; tb; tp ] in
    (checks_of c d ts, ta.posted + tb.posted + tp.posted, failed_of ts, thr_a, thr_b, thr_ping)
  in
  let checks, attempted, failed, thr_a, thr_b, thr_ping = phases in
  let log = Array.of_list (List.rev d.s.log) in
  if Cfg.injected c "corrupt-response" && Array.length log > 0 then begin
    let req, resp = log.(Array.length log / 2) in
    log.(Array.length log / 2) <- (req, String.map (fun ch -> if ch = '1' then '2' else ch) resp ^ " ")
  end;
  let rdir = Filename.concat c.out_dir "wire-replay" in
  Host.fresh_dir rdir;
  let path f = Filename.concat rdir f in
  let none = replay ~config:(backend_config ()) log in
  let jonly = replay ~config:(backend_config ~journal:(path "j.jsonl") ()) log in
  let prod =
    replay ~spans ~config:(backend_config ~journal:(path "p.jsonl") ~snapshot:(path "p.snap") ()) log
  in
  let event_us = replay_online log in
  let client = client_us log in
  let ping_us = ping_inproc_us (if c.tiny then 200 else 5000) in
  Host.rm_rf rdir;
  let n = float_of_int (max 1 (Array.length log)) in
  let muts = float_of_int (max 1 prod.mutations) in
  let per_req x = x /. n in
  let e2e_us = 1e6 /. thr_a in
  let handle_mean = Host.mean prod.handle in
  let inproc = per_req prod.frame +. per_req prod.decode +. handle_mean +. per_req prod.encode in
  let transport = Float.max 0. ((1e6 /. thr_ping) -. ping_us) in
  let checks =
    checks
    @ [
        ( prod.mismatches = 0,
          Printf.sprintf "%d replayed responses differ from the daemon's bytes" prod.mismatches );
      ]
  in
  let metrics =
    [
      Out.metric "serve.frame.us_per_req" "us" (per_req prod.frame);
      Out.metric "serve.protocol.decode_us_per_req" "us" (per_req prod.decode);
      Out.metric "serve.protocol.encode_us_per_req" "us" (per_req prod.encode);
      Out.metric "serve.backend.handle_us_p50" "us" (Host.quantile prod.handle 0.5);
      Out.metric "serve.backend.handle_us_p99" "us" (Host.quantile prod.handle 0.99);
      Out.metric "campaign.journal.us_per_mutation" "us" ((Host.sum jonly.handle -. Host.sum none.handle) /. muts);
      Out.metric "campaign.journal.bytes_per_mutation" "bytes" (float_of_int jonly.journal_bytes /. muts);
      Out.metric "serve.snapshot.us_per_mutation" "us" ((Host.sum prod.handle -. Host.sum jonly.handle) /. muts);
      Out.metric "online.event_us" "us" event_us;
      Out.metric "serve.client.us_per_req" "us" client;
      Out.metric "serve.transport_us_per_req" "us" transport;
      Out.metric "serve.wire_overhead_us_per_req" "us" (e2e_us -. inproc -. client);
      Out.metric "online.resolves_per_1k_req" "count" (1000. *. float_of_int prod.resolves /. n);
      Out.metric "serve.snapshots" "count" (float_of_int prod.snapshots);
      Out.metric "trace.overhead_pct" "%" (100. *. ((thr_a /. thr_b) -. 1.));
      Out.metric "trace.layer_sum_ratio" "ratio" ((inproc +. client +. transport) /. e2e_us);
    ]
  in
  (Out.make ~checks ~attempted ~failed ~metrics
     ~samples:
       [
         ("serve.backend.handle_us_p50", Array.length prod.handle);
         ("serve.backend.handle_us_p99", Array.length prod.handle);
       ]
     ~notes:[],
   spans,
   [||])
