type t = {
  seq : int;
  persist : Online.Service.persist;
  dedup : (string * int * Protocol.response) list;
}

let format_version = 1

let quarantine_path path = path ^ ".quarantine"
let tmp_path path = path ^ ".tmp"

let generation_path path k =
  if k < 0 then invalid_arg "Snapshot.generation_path: negative generation"
  else if k = 0 then path
  else Printf.sprintf "%s.%d" path k

(* --- rendering ---------------------------------------------------------- *)

(* %.17g round-trips an IEEE-754 double exactly — the repo-wide
   convention.  Non-finite values are not JSON, so fields that can be
   [infinity]/[neg_infinity] (footprint, empty maxima) are omitted and
   reconstructed from the field's absence. *)
let buf_kv_num b k v =
  Buffer.add_char b ',';
  Obs.Trace_json.add_escaped b k;
  Buffer.add_string b (Printf.sprintf ":%.17g" v)

let buf_kv_num_finite b k v = if Float.is_finite v then buf_kv_num b k v

let buf_kv_int b k v =
  Buffer.add_char b ',';
  Obs.Trace_json.add_escaped b k;
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int v)

let buf_kv_bool b k v =
  Buffer.add_char b ',';
  Obs.Trace_json.add_escaped b k;
  Buffer.add_string b (if v then ":true" else ":false")

let buf_kv_str b k v =
  Buffer.add_char b ',';
  Obs.Trace_json.add_escaped b k;
  Buffer.add_char b ':';
  Obs.Trace_json.add_escaped b v

let render t =
  let p = t.persist in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"snapshot\":";
  Buffer.add_string b (string_of_int format_version);
  buf_kv_int b "seq" t.seq;
  buf_kv_num b "time" p.Online.Service.p_time;
  buf_kv_int b "next_id" p.p_next_id;
  buf_kv_num b "busy" p.p_busy;
  (match p.p_pending with Some at -> buf_kv_num b "pending" at | None -> ());
  buf_kv_num b "last_solve" p.p_last_solve;
  (match p.p_last_k with Some k -> buf_kv_num b "last_k" k | None -> ());
  buf_kv_num b "prev_d" p.p_prev_d;
  buf_kv_int b "events_handled" p.p_events_handled;
  buf_kv_int b "events_since" p.p_events_since;
  buf_kv_int b "forced" p.p_forced;
  buf_kv_int b "migrations" p.p_migrations;
  buf_kv_int b "resolves" p.p_resolves;
  buf_kv_int b "solver_iters" p.p_solver_iters;
  buf_kv_int b "partition_ops" p.p_partition_ops;
  buf_kv_int b "warm_hits" p.p_warm_hits;
  buf_kv_int b "cold_fallbacks" p.p_cold_fallbacks;
  buf_kv_int b "completed" p.p_completed;
  buf_kv_int b "cancelled" p.p_cancelled;
  buf_kv_num b "resp_sum" p.p_resp_sum;
  buf_kv_num_finite b "resp_max" p.p_resp_max;
  buf_kv_num b "str_sum" p.p_str_sum;
  buf_kv_num_finite b "str_max" p.p_str_max;
  Buffer.add_string b ",\"jobs\":[";
  List.iteri
    (fun i (pj : Online.Service.pjob) ->
      if i > 0 then Buffer.add_char b ',';
      let a = pj.Online.Service.pj_app in
      Buffer.add_string b "{\"id\":";
      Buffer.add_string b (string_of_int pj.pj_id);
      buf_kv_str b "name" a.Model.App.name;
      buf_kv_num b "w" a.Model.App.w;
      buf_kv_num b "s" a.Model.App.s;
      buf_kv_num b "f" a.Model.App.f;
      buf_kv_num b "m0" a.Model.App.m0;
      buf_kv_num b "c0" a.Model.App.c0;
      buf_kv_num_finite b "footprint" a.Model.App.footprint;
      buf_kv_num b "arrival" pj.pj_arrival;
      buf_kv_num b "remaining" pj.pj_remaining;
      buf_kv_num b "procs" pj.pj_procs;
      buf_kv_num b "cache" pj.pj_cache;
      buf_kv_bool b "allocated" pj.pj_allocated;
      buf_kv_int b "epoch" pj.pj_epoch;
      buf_kv_int b "migrations" pj.pj_migrations;
      Buffer.add_char b '}')
    p.p_jobs;
  Buffer.add_string b "],\"dedup\":[";
  List.iteri
    (fun i (sid, rid, resp) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"sid\":";
      Obs.Trace_json.add_escaped b sid;
      buf_kv_int b "rid" rid;
      buf_kv_str b "resp" (Protocol.encode_response resp);
      Buffer.add_char b '}')
    t.dedup;
  Buffer.add_string b "]}";
  Buffer.contents b

let checksum_line payload =
  Printf.sprintf "{\"sum\":%S}" (Campaign.Digest.of_string payload)

(* --- parsing ------------------------------------------------------------ *)

open Obs.Trace_json

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let get name j =
  match member name j with Some v -> v | None -> invalid "missing field %S" name

let num name j =
  match get name j with Num v -> v | _ -> invalid "field %S not a number" name

let int_ name j =
  let v = num name j in
  if Float.is_integer v && Float.abs v <= 2. ** 53. then int_of_float v
  else invalid "field %S not an integer" name

let str name j =
  match get name j with Str s -> s | _ -> invalid "field %S not a string" name

let bool_ name j =
  match get name j with Bool v -> v | _ -> invalid "field %S not a boolean" name

let opt_num name j =
  match member name j with
  | None -> None
  | Some (Num v) -> Some v
  | Some _ -> invalid "field %S not a number" name

let num_or name j default = Option.value ~default (opt_num name j)

let pjob_of_json j : Online.Service.pjob =
  let footprint = num_or "footprint" j infinity in
  let app =
    match
      Model.App.make ~name:(str "name" j) ~s:(num "s" j) ~footprint
        ~c0:(num "c0" j) ~w:(num "w" j) ~f:(num "f" j) ~m0:(num "m0" j) ()
    with
    | app -> app
    | exception Invalid_argument m -> invalid "bad app in snapshot job: %s" m
  in
  {
    Online.Service.pj_id = int_ "id" j;
    pj_app = app;
    pj_arrival = num "arrival" j;
    pj_remaining = num "remaining" j;
    pj_procs = num "procs" j;
    pj_cache = num "cache" j;
    pj_allocated = bool_ "allocated" j;
    pj_epoch = int_ "epoch" j;
    pj_migrations = int_ "migrations" j;
  }

let dedup_of_json j =
  let sid = str "sid" j in
  let rid = int_ "rid" j in
  match Protocol.decode_incoming (str "resp" j) with
  | Ok (Protocol.Reply r) -> (sid, rid, r)
  | Ok (Protocol.Event _) -> invalid "dedup entry holds a push, not a reply"
  | Error (_, m) -> invalid "undecodable dedup reply: %s" m

let of_payload payload =
  let j =
    match parse payload with
    | j -> j
    | exception Failure m -> invalid "malformed snapshot JSON: %s" m
  in
  (match member "snapshot" j with
  | Some (Num v) when v = float_of_int format_version -> ()
  | Some (Num v) -> invalid "unsupported snapshot format %g" v
  | _ -> invalid "not a snapshot file");
  let jobs =
    match get "jobs" j with
    | List l -> List.map pjob_of_json l
    | _ -> invalid "field \"jobs\" not an array"
  in
  let dedup =
    match get "dedup" j with
    | List l -> List.map dedup_of_json l
    | _ -> invalid "field \"dedup\" not an array"
  in
  let completed = int_ "completed" j in
  let persist =
    {
      Online.Service.p_time = num "time" j;
      p_next_id = int_ "next_id" j;
      p_busy = num "busy" j;
      p_pending = opt_num "pending" j;
      p_last_solve = num "last_solve" j;
      p_last_k = opt_num "last_k" j;
      p_prev_d = num_or "prev_d" j 0.;
      p_events_handled = int_ "events_handled" j;
      p_events_since = int_ "events_since" j;
      p_forced = int_ "forced" j;
      p_migrations = int_ "migrations" j;
      p_resolves = int_ "resolves" j;
      p_solver_iters = int_ "solver_iters" j;
      p_partition_ops = int_ "partition_ops" j;
      p_warm_hits = int_ "warm_hits" j;
      p_cold_fallbacks = int_ "cold_fallbacks" j;
      p_completed = completed;
      p_cancelled = int_ "cancelled" j;
      p_resp_sum = num "resp_sum" j;
      p_resp_max = num_or "resp_max" j neg_infinity;
      p_str_sum = num "str_sum" j;
      p_str_max = num_or "str_max" j neg_infinity;
      p_jobs = jobs;
    }
  in
  { seq = int_ "seq" j; persist; dedup }

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref [] in
      (try
         while true do
           acc := input_line ic :: !acc
         done
       with End_of_file -> ());
      List.rev !acc)

let parse_file path =
  match read_lines path with
  | exception Sys_error m -> Error ("unreadable snapshot: " ^ m)
  | [ payload; sum_line ] -> (
    let sum_ok =
      match parse sum_line with
      | Obj [ ("sum", Str s) ] -> String.equal s (Campaign.Digest.of_string payload)
      | _ | (exception Failure _) -> false
    in
    if not sum_ok then Error "snapshot checksum line torn or mismatched"
    else
      match of_payload payload with
      | t -> Ok t
      | exception Invalid m -> Error m)
  | lines -> Error (Printf.sprintf "snapshot has %d lines, expected 2" (List.length lines))

let validate ~path =
  if Sys.file_exists path then parse_file path else Error "no snapshot file"

let load ~path =
  match validate ~path with
  | Ok t -> Some t
  | Error _ when not (Sys.file_exists path) -> None
  | Error _ ->
    (* Preserve the corrupt file for post-mortems and fall back to an
       older generation or journal replay.  Lossless: the journal only
       rotates after a freshly written snapshot passes validation
       (below), so a snapshot that is corrupt on disk never took the
       journal entries it was meant to cover with it. *)
    (try Sys.rename path (quarantine_path path) with Sys_error _ -> ());
    None

let load_generations ~path ~keep =
  if keep < 1 then invalid_arg "Snapshot.load_generations: keep must be >= 1";
  let rec go k =
    if k >= keep then None
    else
      match load ~path:(generation_path path k) with
      | Some t -> Some (t, k)
      | None -> go (k + 1)
  in
  go 0

let file_op = Campaign.Fault.file_op ~site:`Snapshot

(* Shift the generations one slot down (k -> k+1, oldest first) and
   publish the new one into the vacated [path]: every rename lands on a
   vacant name.  The generation in the last slot falls off.  When the
   slot before it is occupied it is unlinked first, and that neighbour
   keeps a generation on disk meanwhile; otherwise it goes only after the
   publish, so a crash never leaves the disk without a generation. *)
let rotate ~path ~keep ~publish =
  let gen = generation_path path in
  let exists k = Sys.file_exists (gen k) in
  let drop () = if exists (keep - 1) then file_op "unlink" (gen (keep - 1)) Sys.remove in
  let early = exists (keep - 2) in
  if early then drop ();
  for k = keep - 2 downto 0 do
    if exists k then file_op "rename" (gen k) (fun src -> Sys.rename src (gen (k + 1)))
  done;
  publish ();
  if not early then drop ()

let write ~path ?(keep = 1) t =
  if keep < 1 then invalid_arg "Snapshot.write: keep must be >= 1";
  let payload = render t in
  (* The fault-injection site: an armed harness can tear the payload
     line, exactly like a crash mid-write would. *)
  let mangled = Campaign.Fault.mangle ~site:`Snapshot ~key:path payload in
  let tmp = tmp_path path in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc mangled;
      output_char oc '\n';
      output_string oc (checksum_line payload);
      output_char oc '\n');
  (* Validate the tmp file by re-reading it BEFORE publishing: a torn
     write never replaces a good snapshot, and the journal is never
     compacted against an unproven one. *)
  match parse_file tmp with
  | Ok _ ->
    let publish () = file_op "publish" path (Sys.rename tmp) in
    (* With a single generation the publish replaces [path]: that is
       the only atomic replace there is. *)
    if keep > 1 then rotate ~path ~keep ~publish else publish ();
    Ok ()
  | Error m ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error m
