type t = {
  seq : int;
  persist : Online.Service.persist;
  dedup : (string * int * Protocol.response) list;
}

let format_version = 3
let magic = "COSCHSNP"

let quarantine_path path = path ^ ".quarantine"
let tmp_path path = path ^ ".tmp"

let generation_path path k =
  if k < 0 then invalid_arg "Snapshot.generation_path: negative generation"
  else if k = 0 then path
  else Printf.sprintf "%s.%d" path k

exception Invalid of string

(* Formats 1 and 2 stored progress and the busy integral at [p_time]
   (the live core integrated them at every event).  Format 3 stores them
   at the anchor [p_last_solve], so an older file restores with its
   anchor moved to [p_time]: exact for the state it holds. *)
let reanchor t =
  { t with persist = { t.persist with Online.Service.p_last_solve = t.persist.p_time } }

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* --- binary layout -------------------------------------------------------

   header   magic (8 bytes), format version, payload length
   payload  seq, the [persist] scalars, the job count, then one column
            per job field (ids, length-prefixed names, the ten float
            fields, allocated flags, epochs, migrations), then the dedup
            count and its entries (length-prefixed sid, rid,
            length-prefixed protocol reply)
   trailer  {!Campaign.Digest.sum64} of the header and the payload

   Formats 2 and 3 share this layout; they differ in what the progress
   fields mean (see [reanchor]), and a format-2 checksum covers the
   payload alone.  Covering the header means a damaged version field
   cannot turn a format-3 file into a valid format-2 one.

   Integers and lengths are 8-byte little-endian, flags one byte, and
   floats their IEEE-754 bits, so every value (-0., infinities, NaN
   payloads) round-trips exactly. *)

let header_len = 24
let trailer_len = 8

(* Per-job float columns, in file order. *)
let float_columns : (Online.Service.pjob -> float) list =
  [
    (fun pj -> pj.pj_app.Model.App.w);
    (fun pj -> pj.pj_app.s);
    (fun pj -> pj.pj_app.f);
    (fun pj -> pj.pj_app.m0);
    (fun pj -> pj.pj_app.c0);
    (fun pj -> pj.pj_app.footprint);
    (fun pj -> pj.pj_arrival);
    (fun pj -> pj.pj_remaining);
    (fun pj -> pj.pj_procs);
    (fun pj -> pj.pj_cache);
  ]

let n_floats = List.length float_columns

(* Bytes per job past its name: id, name length, floats, flag, epoch,
   migrations. *)
let job_fixed_bytes = 8 + 8 + (8 * n_floats) + 1 + 8 + 8

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b v = Buffer.add_int64_le b (Int64.bits_of_float v)
let add_bool b v = Buffer.add_uint8 b (if v then 1 else 0)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_opt b = function
  | None -> add_bool b false
  | Some v ->
    add_bool b true;
    add_float b v

let encode t =
  let p = t.persist in
  let jobs = Array.of_list p.Online.Service.p_jobs in
  let b = Buffer.create (256 + ((job_fixed_bytes + 16) * Array.length jobs)) in
  add_int b t.seq;
  add_float b p.p_time;
  add_int b p.p_next_id;
  add_float b p.p_busy;
  add_opt b p.p_pending;
  add_float b p.p_last_solve;
  add_opt b p.p_last_k;
  add_float b p.p_prev_d;
  List.iter (add_int b)
    [
      p.p_events_handled; p.p_events_since; p.p_forced; p.p_migrations;
      p.p_resolves; p.p_solver_iters; p.p_partition_ops; p.p_warm_hits;
      p.p_cold_fallbacks; p.p_completed; p.p_cancelled;
    ];
  List.iter (add_float b) [ p.p_resp_sum; p.p_resp_max; p.p_str_sum; p.p_str_max ];
  add_int b (Array.length jobs);
  let column f = Array.iter f jobs in
  column (fun pj -> add_int b pj.Online.Service.pj_id);
  column (fun pj -> add_string b pj.pj_app.Model.App.name);
  List.iter (fun field -> column (fun pj -> add_float b (field pj))) float_columns;
  column (fun pj -> add_bool b pj.pj_allocated);
  column (fun pj -> add_int b pj.pj_epoch);
  column (fun pj -> add_int b pj.pj_migrations);
  add_int b (List.length t.dedup);
  List.iter
    (fun (sid, rid, resp) ->
      add_string b sid;
      add_int b rid;
      add_string b (Protocol.encode_response resp))
    t.dedup;
  Buffer.contents b

(* A read cursor over [s.[pos .. limit - 1]]: every read checks its
   bounds first, so a short or corrupt payload fails with [Invalid]. *)
type cursor = { s : string; mutable pos : int; limit : int }

let need c n what =
  if n < 0 || n > c.limit - c.pos then invalid "snapshot truncated in %s" what

let get_word c what =
  need c 8 what;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_int c what = Int64.to_int (get_word c what)
let get_float c what = Int64.float_of_bits (get_word c what)

let flag what = function
  | '\000' -> false
  | '\001' -> true
  | _ -> invalid "bad flag byte in %s" what

let get_bool c what =
  need c 1 what;
  let v = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  flag what v

let get_string c what =
  let n = get_int c what in
  need c n what;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let get_opt c what = if get_bool c what then Some (get_float c what) else None

(* A count of records of at least [bytes] bytes each: bounded by what
   is left, so a corrupt count cannot ask for a huge allocation. *)
let get_count c ~bytes what =
  let n = get_int c what in
  if n < 0 || n > (c.limit - c.pos) / bytes then invalid "bad %s count %d" what n;
  n

let decode_jobs c =
  let n = get_count c ~bytes:job_fixed_bytes "jobs" in
  let ids = Array.init n (fun _ -> get_int c "job ids") in
  let names = Array.init n (fun _ -> get_string c "job names") in
  need c ((job_fixed_bytes - 16) * n) "job columns";
  let base = c.pos in
  let fl k i = Int64.float_of_bits (String.get_int64_le c.s (base + (8 * ((k * n) + i)))) in
  let flags = base + (8 * n_floats * n) in
  (* The epoch column, then the migrations column. *)
  let ints = flags + n in
  let int k i = Int64.to_int (String.get_int64_le c.s (ints + (8 * ((k * n) + i)))) in
  let jobs =
    List.init n (fun i ->
        let app =
          match
            Model.App.make ~name:names.(i) ~w:(fl 0 i) ~s:(fl 1 i) ~f:(fl 2 i)
              ~m0:(fl 3 i) ~c0:(fl 4 i) ~footprint:(fl 5 i) ()
          with
          | app -> app
          | exception Invalid_argument m -> invalid "bad app in snapshot job: %s" m
        in
        {
          Online.Service.pj_id = ids.(i);
          pj_app = app;
          pj_arrival = fl 6 i;
          pj_remaining = fl 7 i;
          pj_procs = fl 8 i;
          pj_cache = fl 9 i;
          pj_allocated = flag "job allocated flags" c.s.[flags + i];
          pj_epoch = int 0 i;
          pj_migrations = int 1 i;
        })
  in
  c.pos <- ints + (16 * n);
  jobs

let decode_dedup c =
  let n = get_count c ~bytes:24 "dedup" in
  List.init n (fun _ ->
      let sid = get_string c "dedup sid" in
      let rid = get_int c "dedup rid" in
      match Protocol.decode_incoming (get_string c "dedup reply") with
      | Ok (Protocol.Reply r) -> (sid, rid, r)
      | Ok (Protocol.Event _) -> invalid "dedup entry holds a push, not a reply"
      | Error (_, m) -> invalid "undecodable dedup reply: %s" m)

let decode c =
  let seq = get_int c "seq" in
  let p_time = get_float c "time" in
  let p_next_id = get_int c "next_id" in
  let p_busy = get_float c "busy" in
  let p_pending = get_opt c "pending" in
  let p_last_solve = get_float c "last_solve" in
  let p_last_k = get_opt c "last_k" in
  let p_prev_d = get_float c "prev_d" in
  let i what = get_int c what and f what = get_float c what in
  let p_events_handled = i "events_handled" in
  let p_events_since = i "events_since" in
  let p_forced = i "forced" in
  let p_migrations = i "migrations" in
  let p_resolves = i "resolves" in
  let p_solver_iters = i "solver_iters" in
  let p_partition_ops = i "partition_ops" in
  let p_warm_hits = i "warm_hits" in
  let p_cold_fallbacks = i "cold_fallbacks" in
  let p_completed = i "completed" in
  let p_cancelled = i "cancelled" in
  let p_resp_sum = f "resp_sum" in
  let p_resp_max = f "resp_max" in
  let p_str_sum = f "str_sum" in
  let p_str_max = f "str_max" in
  let p_jobs = decode_jobs c in
  let dedup = decode_dedup c in
  if c.pos <> c.limit then invalid "%d trailing bytes in snapshot payload" (c.limit - c.pos);
  {
    seq;
    persist =
      {
        Online.Service.p_time; p_next_id; p_busy; p_pending; p_last_solve;
        p_last_k; p_prev_d; p_events_handled; p_events_since; p_forced;
        p_migrations; p_resolves; p_solver_iters; p_partition_ops;
        p_warm_hits; p_cold_fallbacks; p_completed; p_cancelled; p_resp_sum;
        p_resp_max; p_str_sum; p_str_max; p_jobs;
      };
    dedup;
  }

let of_binary data =
  let n = String.length data in
  if n < header_len + trailer_len then invalid "snapshot truncated: %d bytes" n;
  let version = String.get_int64_le data 8 in
  if version <> Int64.of_int format_version && version <> 2L then
    invalid "unsupported snapshot format %Ld" version;
  let len = n - header_len - trailer_len in
  let declared = String.get_int64_le data 16 in
  if declared <> Int64.of_int len then
    invalid "payload of %Ld bytes declared, %d on disk" declared len;
  let sum =
    if version = 2L then Campaign.Digest.sum64 data ~pos:header_len ~len
    else Campaign.Digest.sum64 data ~pos:0 ~len:(header_len + len)
  in
  if String.get_int64_le data (n - trailer_len) <> sum then
    invalid "snapshot checksum mismatched";
  let t = decode { s = data; pos = header_len; limit = header_len + len } in
  if version = 2L then reanchor t else t

(* --- the format-1 JSON reader (restore only) ------------------------------

   A format-1 snapshot is one JSON payload line and one checksum line
   [{"sum":"<Digest.of_string payload>"}].  It is still read, never
   written: the journal prefix it covers was compacted away, so
   rejecting it would lose that state. *)

let legacy_prefix = "{\"snapshot\":"

module Legacy = struct
  open Obs.Trace_json

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
    | Some (Num v) when v = 1. -> ()
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

  let of_lines data =
    let lines = String.split_on_char '\n' data in
    let lines =
      match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
    in
    match lines with
    | [ payload; sum_line ] ->
      let sum_ok =
        match parse sum_line with
        | Obj [ ("sum", Str s) ] -> String.equal s (Campaign.Digest.of_string payload)
        | _ | (exception Failure _) -> false
      in
      if not sum_ok then invalid "snapshot checksum line torn or mismatched"
      else of_payload payload
    | lines -> invalid "snapshot has %d lines, expected 2" (List.length lines)
end

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error ("unreadable snapshot: " ^ m)
  | data -> (
    match
      if String.starts_with ~prefix:magic data then of_binary data
      else if String.starts_with ~prefix:legacy_prefix data then
        reanchor (Legacy.of_lines data)
      else invalid "not a snapshot file"
    with
    | t -> Ok t
    | exception Invalid m -> Error m)

let file_format ~path =
  match
    In_channel.with_open_bin path (fun ic ->
        let n = Int64.to_int (Int64.min 16L (In_channel.length ic)) in
        In_channel.really_input_string ic n)
  with
  | exception Sys_error _ -> None
  | None -> None
  | Some head when String.starts_with ~prefix:magic head ->
    if String.length head < 16 then None
    else Some (Int64.to_int (String.get_int64_le head 8))
  | Some head when String.starts_with ~prefix:legacy_prefix head ->
    let n = String.length legacy_prefix in
    let rec digits i =
      if i < String.length head && head.[i] >= '0' && head.[i] <= '9' then digits (i + 1)
      else i
    in
    int_of_string_opt (String.sub head n (digits n - n))
  | Some _ -> None

let validate ~path =
  if Sys.file_exists path then of_file path else Error "no snapshot file"

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
  let payload = encode t in
  (* The fault-injection site: an armed harness can tear the payload,
     exactly like a crash mid-write would. *)
  let mangled = Campaign.Fault.mangle ~site:`Snapshot ~key:path payload in
  let len = String.length payload in
  let header = Buffer.create header_len in
  Buffer.add_string header magic;
  add_int header format_version;
  add_int header len;
  let trailer = Bytes.create trailer_len in
  let summed = Buffer.contents header ^ payload in
  Bytes.set_int64_le trailer 0
    (Campaign.Digest.sum64 summed ~pos:0 ~len:(String.length summed));
  let tmp = tmp_path path in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Buffer.output_buffer oc header;
      output_string oc mangled;
      output_bytes oc trailer);
  (* Validate the tmp file by re-reading it BEFORE publishing: a torn
     write never replaces a good snapshot, and the journal is never
     compacted against an unproven one.  Validation checks the length
     and the checksum, then decodes every field, [Model.App.make]
     included, as a restore would. *)
  match of_file tmp with
  | Ok _ ->
    let publish () = file_op "publish" path (Sys.rename tmp) in
    (* With a single generation the publish replaces [path]: that is
       the only atomic replace there is. *)
    if keep > 1 then rotate ~path ~keep ~publish else publish ();
    Ok ()
  | Error m ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error m
