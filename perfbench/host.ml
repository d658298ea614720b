(* Clock, sample statistics, process memory and the host-drift
   reference kernel shared by the workloads. *)

let now_ns = Obs.Clock.now_ns
let us_since t0 = Obs.Clock.elapsed_us ~since:t0
let s_since t0 = us_since t0 /. 1e6

(* Stop predicate: true once [secs] have passed since it was made. *)
let for_seconds secs =
  let deadline = Int64.add (now_ns ()) (Int64.of_float (secs *. 1e9)) in
  fun () -> Int64.compare (now_ns ()) deadline >= 0

(* Run [untraced] and [traced] in alternating slices (each given its
   stop predicate) for [secs] in total, so both passes see the same
   program state and the same host; at least one slice of each.
   Returns the seconds each pass ran. *)
let alternate ~secs ~untraced ~traced =
  let slice = Float.min 1. (secs /. 4.) in
  let stop = for_seconds secs in
  let a = ref 0. and b = ref 0. in
  while !b = 0. || not (stop ()) do
    let on = !a > !b in
    let t0 = now_ns () in
    (if on then traced else untraced) (for_seconds slice);
    let dt = us_since t0 /. 1e6 in
    if on then b := !b +. dt else a := !a +. dt
  done;
  (!a, !b)

(* An endless seeded stream of NPB-SYNTH applications, drawn 1024 at a
   time. *)
let app_stream rng =
  let apps = ref [||] and i = ref 0 in
  fun () ->
    if !i = Array.length !apps then begin
      apps := Model.Workload.generate ~rng Model.Workload.NpbSynth 1024;
      i := 0
    end;
    incr i;
    !apps.(!i - 1)

(* Current value of one of the library's Obs counters. *)
let counter name = Obs.Metrics.count (Obs.Metrics.counter name)

(* A growable float buffer: per-operation latencies of a timed phase. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* Nearest-rank quantile ([q] in [0, 1]) of unsorted samples — the rank
   rule every other quantile in the repo uses.  0 when empty, so a
   layer a workload never exercises reads 0. *)
let quantile a q =
  if Array.length a = 0 then 0.
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    Util.Stats.Quantile.nearest_sorted b q
  end

let median a = if Array.length a = 0 then 0. else Util.Stats.median a
let mean a = if Array.length a = 0 then 0. else Util.Stats.mean a
let sum a = Array.fold_left ( +. ) 0. a

(* Per-window medians of a timed phase cut into whole [window]-second
   windows: the completions per second of each window (its completions
   over the time from the previous window's last one to its own last)
   and its median latency, then the median of each over the windows.
   A burst of host noise that covers fewer than half the windows moves
   neither figure.  [stamps] are the completion times in seconds since
   the phase began, in order, and [lat] the matching latencies.  A
   phase shorter than one window is read whole.  Returns (rate, p50,
   windows). *)
let windowed ~window ~secs stamps lat =
  let n = Array.length stamps in
  let k = int_of_float (secs /. window) in
  if k < 1 then (float_of_int n /. Float.max secs 1e-9, quantile lat 0.5, 0)
  else begin
    let rates = Array.make k 0. and p50s = Array.make k 0. in
    let i = ref 0 and last = ref 0. in
    for w = 0 to k - 1 do
      let lo = !i and hi = float_of_int (w + 1) *. window in
      while !i < n && stamps.(!i) < hi do incr i done;
      if !i > lo then begin
        rates.(w) <- float_of_int (!i - lo) /. (stamps.(!i - 1) -. !last);
        last := stamps.(!i - 1)
      end;
      p50s.(w) <- quantile (Array.sub lat lo (!i - lo)) 0.5
    done;
    (median rates, median p50s, k)
  end

(* Samples strictly above the nearest-rank p99.  A p99 needs at least
   ten of them to mean anything; the timed phases are sized to leave
   them, and the stamp reports the count. *)
let beyond_p99 n = n - Util.Stats.Quantile.rank ~count:(max n 1) ~q:0.99

(* High-water resident set of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* (steal, total) CPU ticks of the whole machine so far, from
   /proc/stat: time the hypervisor gave this VM's CPUs to others. *)
let cpu_ticks () =
  In_channel.with_open_text "/proc/stat" (fun ic ->
      match In_channel.input_line ic with
      | Some l -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | "cpu" :: fields ->
          let v = List.map int_of_string fields in
          (List.nth v 7, List.fold_left ( + ) 0 v)
        | _ -> failwith "/proc/stat: no cpu line")
      | None -> failwith "/proc/stat: empty")

(* Share of the machine's CPU time stolen between two readings, %. *)
let steal_pct (s0, t0) (s1, t1) = 100. *. float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))

(* A fixed kernel owned by the benchmark — an integer/float loop plus a
   strided pass over 16 MB, since the workloads are partly
   memory-bound: its time moves only with the host (frequency, cache
   and memory contention), never with the program, so it tells host
   drift apart from a regression. *)
let ref_kernel_ms () =
  let mem = Array.make (2 * 1024 * 1024) 1. in
  let once () =
    let t0 = now_ns () in
    let x = ref 0x2545F491 and acc = ref 0. in
    for i = 1 to 1_000_000 do
      x := !x lxor (!x lsl 13) land 0x3FFFFFFF;
      x := !x lxor (!x lsr 7);
      acc := !acc +. sqrt (float_of_int (!x land 0xFFFF + i))
    done;
    let n = Array.length mem in
    for k = 0 to 7 do
      let i = ref k in
      while !i < n do
        acc := !acc +. Array.unsafe_get mem !i;
        i := !i + 8
      done
    done;
    let dt = us_since t0 /. 1e3 in
    if Float.is_nan !acc then failwith "ref kernel";
    dt
  in
  median (Array.init 7 (fun _ -> once ()))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Sys.mkdir p 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path
