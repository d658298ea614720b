exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected what -> Some (Printf.sprintf "Campaign.Fault.Injected(%s)" what)
    | _ -> None)

type store_site = [ `Cache | `Journal | `Snapshot ]

let store_site_tag = function
  | `Cache -> "cache"
  | `Journal -> "journal"
  | `Snapshot -> "snapshot"

type t = {
  seed : int;
  task_exn : float;
  task_delay : float;
  delay : float;
  fail_attempts : int;
  store_exn : float;
  store_attempts : int;
  torn_write : float;
  (* Per-(site, key) operation counts, so store faults can be bounded per
     key ("the first [store_attempts] appends of an affected key raise").
     Counting per key keeps the schedule independent of cross-trial
     interleaving, hence of the jobs count. *)
  counts : (string, int) Hashtbl.t;
  lock : Mutex.t;
}

let create ?(task_exn = 0.) ?(task_delay = 0.) ?(delay = 0.05)
    ?(fail_attempts = max_int) ?(store_exn = 0.) ?(store_attempts = 1)
    ?(torn_write = 0.) ~seed () =
  {
    seed;
    task_exn;
    task_delay;
    delay;
    fail_attempts;
    store_exn;
    store_attempts;
    torn_write;
    counts = Hashtbl.create 64;
    lock = Mutex.create ();
  }

(* FNV-1a over seed + tag + key: every fault decision is a pure function
   of the harness seed and the event's identity, never of wall-clock time,
   draw order, or worker interleaving — the whole point of the harness is
   that an injected failure schedule is bit-reproducible at any --jobs. *)
let event_seed t ~tag ~key =
  let h = ref 0xCBF29CE484222325L in
  let byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) 0x100000001B3L
  in
  let string s = String.iter (fun c -> byte (Char.code c)) s in
  for k = 0 to 7 do
    byte (t.seed lsr (8 * k))
  done;
  string tag;
  byte 0x7c;
  string key;
  Int64.to_int !h land max_int

let coin t ~tag ~key p =
  p > 0.
  && Util.Rng.float (Util.Rng.create (event_seed t ~tag ~key)) 1.0 < p

(* --- global arming ----------------------------------------------------- *)

let armed : t option Atomic.t = Atomic.make None

let active () = Atomic.get armed

let with_harness t f =
  Hashtbl.reset t.counts;
  Atomic.set armed (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set armed None) f

(* --- instrumentation points -------------------------------------------- *)

let task_point ~trial ~attempt =
  match active () with
  | None -> ()
  | Some t ->
    let key = string_of_int trial in
    if attempt < t.fail_attempts then begin
      if coin t ~tag:"task-delay" ~key t.task_delay then Unix.sleepf t.delay;
      if coin t ~tag:"task-exn" ~key t.task_exn then
        raise
          (Injected (Printf.sprintf "task exn, trial %d attempt %d" trial attempt))
    end

let store_point ~site ~key =
  match active () with
  | None -> ()
  | Some t ->
    if t.store_exn > 0. then begin
      let id = store_site_tag site ^ "|" ^ key in
      Mutex.lock t.lock;
      let n = Option.value ~default:0 (Hashtbl.find_opt t.counts id) in
      Hashtbl.replace t.counts id (n + 1);
      Mutex.unlock t.lock;
      if n < t.store_attempts && coin t ~tag:"store-exn" ~key:id t.store_exn
      then
        raise
          (Injected
             (Printf.sprintf "%s store exn, key %s op %d" (store_site_tag site)
                key n))
    end

let file_op ~site op path f =
  store_point ~site ~key:(op ^ " " ^ path);
  f path

let mangle ~site ~key line =
  match active () with
  | None -> line
  | Some t ->
    let id = store_site_tag site ^ "|" ^ key in
    if String.length line > 1 && coin t ~tag:"torn-write" ~key:id t.torn_write
    then
      let cut =
        1 + (event_seed t ~tag:"torn-cut" ~key:id mod (String.length line - 1))
      in
      String.sub line 0 cut
    else line
