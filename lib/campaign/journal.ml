type entry = { trial : int; key : string; values : float array }

type t = {
  path : string;
  lock : Mutex.t;
  mutable entries_rev : entry list;
  mutable quarantined : int;
  by_key : (string, float array) Hashtbl.t;
  mutable oc : out_channel option;  (* append channel; reopened after a rewrite *)
}

let quarantine_path path = path ^ ".quarantine"

let m_appends =
  Obs.Metrics.counter ~help:"entries appended to the journal"
    "journal.appends"

let m_quarantined =
  Obs.Metrics.counter ~help:"corrupt journal lines quarantined on load"
    "journal.quarantined"

let values_string values =
  String.concat ","
    (List.map (Printf.sprintf "%.17g") (Array.to_list values))

(* The checksum covers the raw field texts exactly as serialized, so any
   single-byte change to a line — in a field, in the punctuation, or in
   the checksum itself — is detected on reload. *)
let checksum ~trial ~key ~values_str =
  Digest.of_string (Printf.sprintf "%d|%s|[%s]" trial key values_str)

let entry_to_line e =
  let values = values_string e.values in
  Printf.sprintf "{\"trial\":%d,\"key\":%S,\"values\":[%s],\"sum\":%S}" e.trial
    e.key values
    (checksum ~trial:e.trial ~key:e.key ~values_str:values)

let parse_values rest =
  if String.trim rest = "" then [||]
  else
    Array.of_list (List.map float_of_string (String.split_on_char ',' rest))

(* [Some entry] for an intact line, [None] for a corrupt/torn/mismatched
   one.  Lines written before checksums existed (no "sum" field) are
   grandfathered in unverified. *)
let parse_line line =
  let entry trial key rest =
    try Some { trial; key; values = parse_values rest } with Failure _ -> None
  in
  match
    Scanf.sscanf line " {\"trial\":%d,\"key\":%S,\"values\":[%s@],\"sum\":%S}%!"
      (fun trial key rest sum ->
        if String.equal sum (checksum ~trial ~key ~values_str:rest) then
          entry trial key rest
        else None)
  with
  | r -> r
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> (
    (* Legacy pre-checksum format. *)
    try
      Scanf.sscanf line " {\"trial\":%d,\"key\":%S,\"values\":[%s@]}%!" entry
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let scan ~path =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let acc = ref [] and bad = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line = "" then ()
             else
               match parse_line line with
               | Some e -> acc := e :: !acc
               | None -> bad := line :: !bad
           done
         with End_of_file -> ());
        (List.rev !acc, List.rev !bad))
  end

let load ~path = fst (scan ~path)

(* Atomic whole-file write of [entries] (oldest first) through tmp +
   rename; the file on disk is a valid journal at every instant. *)
let write_all ~path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Fault.mangle ~site:`Journal ~key:e.key (entry_to_line e));
          output_char oc '\n')
        entries);
  Sys.rename tmp path

let create ~path =
  let existing, bad = scan ~path in
  (* Quarantine, don't crash: corrupt lines are preserved verbatim in a
     side file for post-mortems, counted, and dropped from the replayed
     state — the campaign recomputes exactly those trials.  Healing
     happens here, once: the journal is rewritten without the bad lines,
     so subsequent O(1) appends extend a clean file. *)
  if bad <> [] then begin
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 (quarantine_path path)
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          bad);
    write_all ~path existing
  end;
  if bad <> [] && Obs.Probe.on () then
    Obs.Metrics.add m_quarantined (List.length bad);
  (* Open the append channel here so a bad path fails now, naming it,
     rather than at the first append — a campaign's first finished trial
     or a daemon's first mutation. *)
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let by_key = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_key e.key e.values) existing;
  {
    path;
    lock = Mutex.create ();
    entries_rev = List.rev existing;
    quarantined = List.length bad;
    by_key;
    oc = Some oc;
  }

let path t = t.path

let quarantined t =
  Mutex.lock t.lock;
  let n = t.quarantined in
  Mutex.unlock t.lock;
  n

let out_channel_locked t =
  match t.oc with
  | Some oc -> oc
  | None ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 t.path in
    t.oc <- Some oc;
    oc

let close_out_locked t =
  match t.oc with
  | None -> ()
  | Some oc ->
    (try close_out oc with Sys_error _ -> ());
    t.oc <- None

let append t e =
  Fault.store_point ~site:`Journal ~key:e.key;
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not (Hashtbl.mem t.by_key e.key) then begin
        t.entries_rev <- e :: t.entries_rev;
        Hashtbl.replace t.by_key e.key e.values;
        let oc = out_channel_locked t in
        output_string oc (Fault.mangle ~site:`Journal ~key:e.key (entry_to_line e));
        output_char oc '\n';
        flush oc;
        if Obs.Probe.on () then Obs.Metrics.incr m_appends
      end)

let rewrite t entries =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      close_out_locked t;
      write_all ~path:t.path entries;
      t.entries_rev <- List.rev entries;
      Hashtbl.reset t.by_key;
      List.iter (fun e -> Hashtbl.replace t.by_key e.key e.values) entries)

let lookup t key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.by_key key in
  Mutex.unlock t.lock;
  r

let entries t =
  Mutex.lock t.lock;
  let e = List.rev t.entries_rev in
  Mutex.unlock t.lock;
  e

let length t =
  Mutex.lock t.lock;
  let n = List.length t.entries_rev in
  Mutex.unlock t.lock;
  n
