type entry = { trial : int; key : string; values : float array }

type t = {
  path : string;
  lock : Mutex.t;
  mutable current : entry list;  (* segment 0 ([path]), newest first *)
  mutable older : entry list list;  (* segments 1, 2, ..., each newest first *)
  mutable quarantined : int;
  by_key : (string, float array) Hashtbl.t;
  mutable oc : out_channel option;  (* append channel; reopened after a rotation *)
}

let quarantine_path path = path ^ ".quarantine"

let segment_path path k =
  if k < 0 then invalid_arg "Journal.segment_path: negative segment"
  else if k = 0 then path
  else Printf.sprintf "%s.%d" path k

(* The highest [k] with a [path.k] on disk.  Listing the directory
   rather than probing [path.1], [path.2], ... until one is missing
   finds the segments above a hole that a crash mid-rotation left. *)
let last_segment path =
  let prefix = Filename.basename path ^ "." in
  let n = String.length prefix in
  match Sys.readdir (Filename.dirname path) with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun acc name ->
        if String.starts_with ~prefix name then
          let suffix = String.sub name n (String.length name - n) in
          match int_of_string_opt suffix with
          | Some k when k > acc && string_of_int k = suffix -> k
          | _ -> acc
        else acc)
      0 names

let segments ~path =
  let last = last_segment path in
  List.filter Sys.file_exists
    (List.init (last + 1) (fun i -> segment_path path (last - i)))

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
   one, including a line without its "sum" field. *)
let parse_line line =
  try
    Scanf.sscanf line " {\"trial\":%d,\"key\":%S,\"values\":[%s@],\"sum\":%S}%!"
      (fun trial key rest sum ->
        if String.equal sum (checksum ~trial ~key ~values_str:rest) then
          Some { trial; key; values = parse_values rest }
        else None)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

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

(* Quarantine, don't crash: corrupt lines are preserved verbatim in a
   side file for post-mortems, counted, and dropped from the replayed
   state — the campaign recomputes exactly those trials.  Healing
   happens here, once: the segment is rewritten without the bad lines,
   so subsequent O(1) appends extend a clean file. *)
let heal ~path =
  let existing, bad = scan ~path in
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
    write_all ~path existing;
    if Obs.Probe.on () then Obs.Metrics.add m_quarantined (List.length bad)
  end;
  (existing, List.length bad)

let create ~path =
  let last = last_segment path in
  let by_key = Hashtbl.create 256 and quarantined = ref 0 in
  (* Oldest segment first, so [by_key] sees entries in journal order. *)
  let segments =
    List.init (last + 1) (fun i ->
        let existing, bad = heal ~path:(segment_path path (last - i)) in
        List.iter (fun e -> Hashtbl.replace by_key e.key e.values) existing;
        quarantined := !quarantined + bad;
        List.rev existing)
  in
  (* Open the append channel here so a bad path fails now, naming it,
     rather than at the first append — a campaign's first finished trial
     or a daemon's first mutation. *)
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  {
    path;
    lock = Mutex.create ();
    current = List.nth segments last;
    older = List.tl (List.rev segments);
    quarantined = !quarantined;
    by_key;
    oc = Some oc;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let quarantined t = with_lock t (fun () -> t.quarantined)

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
  with_lock t (fun () ->
      if not (Hashtbl.mem t.by_key e.key) then begin
        (* The entry is recorded only once its line is flushed, so a
           write that raises leaves no entry in memory that the file
           lacks.  A channel whose write raised is closed, and the next
           append reopens [path]. *)
        let oc = out_channel_locked t in
        (try
           output_string oc (Fault.mangle ~site:`Journal ~key:e.key (entry_to_line e));
           output_char oc '\n';
           flush oc
         with Sys_error _ as exn ->
           close_out_locked t;
           raise exn);
        t.current <- e :: t.current;
        Hashtbl.replace t.by_key e.key e.values;
        if Obs.Probe.on () then Obs.Metrics.incr m_appends
      end)

let rotate t ~keep =
  if keep < 1 then invalid_arg "Journal.rotate: keep must be >= 1";
  with_lock t (fun () ->
      close_out_locked t;
      let segments = t.current :: t.older in
      let file_op op k f =
        let seg = segment_path t.path k in
        if Sys.file_exists seg then Fault.file_op ~site:`Journal op seg f
      in
      (* Unlink what falls off, then shift k -> k+1 from the highest
         index down, so every rename lands on a vacant name. *)
      List.iteri
        (fun k seg ->
          if k >= keep - 1 then begin
            file_op "unlink" k Sys.remove;
            List.iter (fun e -> Hashtbl.remove t.by_key e.key) seg
          end)
        segments;
      for k = min (List.length t.older) (keep - 2) downto 0 do
        file_op "rename" k (fun src -> Sys.rename src (segment_path t.path (k + 1)))
      done;
      Fault.file_op ~site:`Journal "create" t.path (fun p ->
          t.oc <- Some (open_out_gen [ Open_append; Open_creat ] 0o644 p));
      t.current <- [];
      t.older <- List.filteri (fun i _ -> i < keep - 1) segments)

let lookup t key = with_lock t (fun () -> Hashtbl.find_opt t.by_key key)

let entries t =
  with_lock t (fun () -> List.rev (List.concat (t.current :: t.older)))

let length t =
  with_lock t (fun () ->
      List.fold_left (fun n seg -> n + List.length seg) 0 (t.current :: t.older))
