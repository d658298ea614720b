(* Columnar live-set state.

   Hot per-job quantities live in flat float-array columns indexed by a
   [slot] drawn from a freelist; a [job] value is a thin handle carrying
   the immutable identity (id, app, arrival) plus its slot.  The passes
   that do walk the live set (settling, installing, the completion
   sweep, degradation estimation) read the columns linearly instead of
   chasing a record per job, and the incremental solver reads the same
   columns through {!view}.

   Retirement marks the handle's slot [-1] (final values are stashed on
   the handle first) and returns the slot to the freelist, so the next
   admission reuses it; the admission-ordered [dense] iteration array
   keeps a hole where the job was until {!compact} squeezes it (lazily,
   when holes pile up or a solver view is taken).  Handles never read
   columns after retirement, so slot reuse cannot alias.

   Progress is epoch-anchored.  A running job's allocation, hence its
   [exe], is constant between two installs, so [c_remaining] holds each
   job's fraction at the {e anchor} (the last {!view}, i.e. the last
   re-solve) and {!remaining} evaluates
   [max 0 (rem0 - (clock - anchor) / exe)] on demand: the expression
   the per-event integrator evaluated for a one-step epoch, bit for bit.
   A running job's absolute predicted finish [anchor + rem0 * exe] is
   fixed for the epoch too, and the state keeps the minimum, so moving
   the clock, admitting, retiring and counting queued/running jobs are
   all O(1); only a solver view, an install, a completion sweep and the
   rare retirement of the earliest finisher walk the live set, and each
   such walk is counted in [sweeps]. *)

type job = {
  id : int;
  app : Model.App.t;
  arrival : float;
  alone_time : float;
  mutable slot : int; (* column index; -1 once retired *)
  mutable dpos : int; (* index in the dense iteration array *)
  mutable allocated : bool;
  mutable epoch : int;
  mutable migrations : int;
  mutable finish : float option;
  mutable cancelled : bool;
  mutable rem_final : float; (* remaining fraction at retirement *)
  st : t;
}

(* Parallel per-slot columns, all replaced together on growth.  The
   solver-input columns (w, s, f, m0, c0, footprint, d, dpow, capx) are
   pure functions of the app and the platform, computed once at
   admission; exe and access are caches of the execution model under
   the *current* allocation, refreshed on every allocation change. *)
and cols = {
  mutable cap : int;
  mutable c_remaining : float array; (* fraction left at the anchor *)
  mutable c_procs : float array;
  mutable c_cache : float array;
  mutable c_exe : float array; (* Exe(p, x); infinity while queued *)
  mutable c_access : float array; (* access_cost at the current x *)
  mutable c_w : float array;
  mutable c_s : float array;
  mutable c_f : float array;
  mutable c_m0 : float array;
  mutable c_c0 : float array;
  mutable c_fp : float array;
  mutable c_d : float array; (* Power_law.d_of *)
  mutable c_dpow : float array; (* d ** (1 / alpha) *)
  mutable c_capx : float array; (* max useful cache fraction *)
}

and t = {
  platform : Model.Platform.t;
  cols : cols;
  mutable clock : float;
  mutable anchor : float; (* last settle: the instant [c_remaining] holds *)
  mutable next_id : int;
  mutable busy : float; (* settled busy integral, see [settled_busy] *)
  mutable nrunning : int; (* live jobs with procs > 0 *)
  mutable nqueued : int; (* live jobs with procs = 0 *)
  mutable next_fin : float; (* min of [finish_of] over the live set *)
  mutable next_slot : int; (* its slot (first in dense order), or -1 *)
  mutable sweeps : int; (* passes over the whole live set *)
  mutable dense : job array; (* admission order, with retirement holes *)
  mutable dense_slot : int array; (* slot mirror of [dense]; -1 = hole *)
  mutable ndense : int;
  mutable nlive : int;
  mutable free : int array; (* freelist stack of retired slots *)
  mutable nfree : int;
  mutable hwm : int; (* slots ever allocated *)
  mutable view_slot : int array; (* position -> slot, for {!view} *)
}

let create platform =
  {
    platform;
    cols =
      {
        cap = 0;
        c_remaining = [||];
        c_procs = [||];
        c_cache = [||];
        c_exe = [||];
        c_access = [||];
        c_w = [||];
        c_s = [||];
        c_f = [||];
        c_m0 = [||];
        c_c0 = [||];
        c_fp = [||];
        c_d = [||];
        c_dpow = [||];
        c_capx = [||];
      };
    clock = 0.;
    anchor = 0.;
    next_id = 0;
    busy = 0.;
    nrunning = 0;
    nqueued = 0;
    next_fin = infinity;
    next_slot = -1;
    sweeps = 0;
    dense = [||];
    dense_slot = [||];
    ndense = 0;
    nlive = 0;
    free = [||];
    nfree = 0;
    hwm = 0;
    view_slot = [||];
  }

let platform t = t.platform
let now t = t.clock
let anchor t = t.anchor
let next_id t = t.next_id
let sweeps t = t.sweeps

(* --- progress ---------------------------------------------------------- *)

(* The remaining fraction of the job in slot [s] at the current clock:
   one step of the flat integrator from the anchor.  Queued jobs (and
   every job while the clock sits on the anchor) read the column. *)
let rem_at t s =
  let c = t.cols in
  let rem = c.c_remaining.(s) in
  if c.c_procs.(s) > 0. && rem > 0. && t.clock > t.anchor then
    Float.max 0. (rem -. ((t.clock -. t.anchor) /. c.c_exe.(s)))
  else rem

(* The absolute predicted finish of the job in slot [s]: constant over
   the epoch, since the anchor, the anchored fraction and exe only
   change when a view settles the state and an install follows. *)
let finish_of t s =
  let c = t.cols in
  if c.c_procs.(s) > 0. then t.anchor +. (c.c_remaining.(s) *. c.c_exe.(s))
  else infinity

let advance t ~to_ =
  if Float.is_nan to_ then invalid_arg "State.advance: NaN time";
  if to_ < t.clock then invalid_arg "State.advance: cannot advance backwards";
  t.clock <- to_

(* --- accessors --------------------------------------------------------- *)

let id j = j.id
let app j = j.app
let arrival j = j.arrival
let alone_time j = j.alone_time
let allocated j = j.allocated
let epoch j = j.epoch
let migrations j = j.migrations
let finish j = j.finish
let cancelled j = j.cancelled
let remaining j = if j.slot >= 0 then rem_at j.st j.slot else j.rem_final
let settled_remaining j =
  if j.slot >= 0 then j.st.cols.c_remaining.(j.slot) else j.rem_final
let procs j = if j.slot >= 0 then j.st.cols.c_procs.(j.slot) else 0.
let predicted_finish j =
  if j.slot >= 0 then finish_of j.st j.slot else infinity
let cache j = if j.slot >= 0 then j.st.cols.c_cache.(j.slot) else 0.

(* --- growth ------------------------------------------------------------ *)

let grow_float a cap =
  let b = Array.make cap 0. in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The capacity repeated doubling from 8 reaches for [n] entries. *)
let capacity_for n =
  let rec up c = if c >= n then c else up (2 * c) in
  up 8

(* Grow the columns to hold [n] slots, in one step however far. *)
let grow_cols c n =
  let cap = capacity_for n in
  c.c_remaining <- grow_float c.c_remaining cap;
  c.c_procs <- grow_float c.c_procs cap;
  c.c_cache <- grow_float c.c_cache cap;
  c.c_exe <- grow_float c.c_exe cap;
  c.c_access <- grow_float c.c_access cap;
  c.c_w <- grow_float c.c_w cap;
  c.c_s <- grow_float c.c_s cap;
  c.c_f <- grow_float c.c_f cap;
  c.c_m0 <- grow_float c.c_m0 cap;
  c.c_c0 <- grow_float c.c_c0 cap;
  c.c_fp <- grow_float c.c_fp cap;
  c.c_d <- grow_float c.c_d cap;
  c.c_dpow <- grow_float c.c_dpow cap;
  c.c_capx <- grow_float c.c_capx cap;
  c.cap <- cap

let alloc_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    if t.hwm >= t.cols.cap then grow_cols t.cols (t.hwm + 1);
    let s = t.hwm in
    t.hwm <- t.hwm + 1;
    s
  end

let free_slot t s =
  if Array.length t.free <= t.nfree then begin
    let b = Array.make (max 8 (2 * Array.length t.free)) 0 in
    Array.blit t.free 0 b 0 t.nfree;
    t.free <- b
  end;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* Squeeze retirement holes out of the dense iteration array, preserving
   admission order. *)
let compact t =
  if t.ndense <> t.nlive then begin
    t.sweeps <- t.sweeps + 1;
    let k = ref 0 in
    for i = 0 to t.ndense - 1 do
      let s = t.dense_slot.(i) in
      if s >= 0 then begin
        let j = t.dense.(i) in
        t.dense.(!k) <- j;
        t.dense_slot.(!k) <- s;
        j.dpos <- !k;
        incr k
      end
    done;
    t.ndense <- !k
  end

let push_dense t j =
  if t.ndense >= Array.length t.dense then begin
    (* Prefer squeezing holes to growing when most entries are dead. *)
    if t.nlive * 2 <= t.ndense then compact t;
    if t.ndense >= Array.length t.dense then begin
      (* Never below the columns' capacity, so a restore sized them for
         its jobs at once (see {!restore}) sizes this array once too. *)
      let cap = max (capacity_for (t.ndense + 1)) t.cols.cap in
      let d = Array.make cap j in
      Array.blit t.dense 0 d 0 t.ndense;
      t.dense <- d;
      let ds = Array.make cap (-1) in
      Array.blit t.dense_slot 0 ds 0 t.ndense;
      t.dense_slot <- ds
    end
  end;
  j.dpos <- t.ndense;
  t.dense.(t.ndense) <- j;
  t.dense_slot.(t.ndense) <- j.slot;
  t.ndense <- t.ndense + 1;
  t.nlive <- t.nlive + 1

(* The running/queued counters, moved by the sign of a job's processor
   share exactly as the counting scans they replace classified it. *)
let count_procs t p delta =
  if p > 0. then t.nrunning <- t.nrunning + delta
  else if p = 0. then t.nqueued <- t.nqueued + delta

(* --- admission --------------------------------------------------------- *)

(* Fill every column of [slot] for a job on [app] with the given
   progress (at the anchor) and allocation.  The exe/access caches are
   pure functions of the app, platform and allocation, so a checkpoint
   restore recomputes bit-identical values — and with them the same
   predicted finish. *)
let fill_slot t slot ~(app : Model.App.t) ~remaining ~procs ~cache =
  let c = t.cols and pf = t.platform in
  c.c_remaining.(slot) <- remaining;
  c.c_procs.(slot) <- procs;
  c.c_cache.(slot) <- cache;
  c.c_w.(slot) <- app.Model.App.w;
  c.c_s.(slot) <- app.Model.App.s;
  c.c_f.(slot) <- app.Model.App.f;
  c.c_m0.(slot) <- app.Model.App.m0;
  c.c_c0.(slot) <- app.Model.App.c0;
  c.c_fp.(slot) <- app.Model.App.footprint;
  let d = Model.Power_law.d_of ~app ~platform:pf in
  c.c_d.(slot) <- d;
  c.c_dpow.(slot) <- (if d = 0. then 0. else d ** (1. /. pf.Model.Platform.alpha));
  c.c_capx.(slot) <- Model.Power_law.max_useful_fraction ~app ~platform:pf;
  let access = Model.Exec_model.access_cost ~app ~platform:pf cache in
  c.c_access.(slot) <- access;
  let exe =
    if procs > 0. then Model.Exec_model.amdahl_flops ~app procs *. access
    else infinity
  in
  c.c_exe.(slot) <- exe;
  count_procs t procs 1

let mk_job t ~id ~app ~arrival ~slot =
  let alone_time =
    Model.Exec_model.exe ~app ~platform:t.platform
      ~p:t.platform.Model.Platform.p ~x:1.
  in
  {
    id;
    app;
    arrival;
    alone_time;
    slot;
    dpos = -1;
    allocated = false;
    epoch = 0;
    migrations = 0;
    finish = None;
    cancelled = false;
    rem_final = 0.;
    st = t;
  }

let add t ~app =
  let slot = alloc_slot t in
  fill_slot t slot ~app ~remaining:1. ~procs:0. ~cache:0.;
  let job = mk_job t ~id:t.next_id ~app ~arrival:t.clock ~slot in
  t.next_id <- t.next_id + 1;
  push_dense t job;
  job

let restore t ~clock ~anchor ~next_id ~busy ~live =
  if t.nlive > 0 || t.next_id > 0 then
    invalid_arg "State.restore: state is not fresh";
  if Float.is_nan clock || clock < 0. then
    invalid_arg "State.restore: bad clock";
  if Float.is_nan anchor || anchor < 0. || anchor > clock then
    invalid_arg "State.restore: bad anchor";
  if next_id < 0 then invalid_arg "State.restore: bad next_id";
  if live < 0 then invalid_arg "State.restore: bad live count";
  if live > t.cols.cap then grow_cols t.cols live;
  t.clock <- clock;
  t.anchor <- anchor;
  t.next_id <- next_id;
  t.busy <- busy

(* The id of the newest live job, or -1: injection order enforcement.
   The newest live handle is the last non-hole dense entry. *)
let last_live_id t =
  let rec scan i = if i < 0 then -1
    else if t.dense_slot.(i) >= 0 then t.dense.(i).id
    else scan (i - 1)
  in
  scan (t.ndense - 1)

let inject t ~id ~app ~arrival ~remaining ~procs ~cache ~allocated ~epoch
    ~migrations =
  if last_live_id t >= id then
    invalid_arg "State.inject: jobs must be injected in id order";
  let slot = alloc_slot t in
  fill_slot t slot ~app ~remaining ~procs ~cache;
  let job = mk_job t ~id ~app ~arrival ~slot in
  job.allocated <- allocated;
  job.epoch <- epoch;
  job.migrations <- migrations;
  push_dense t job;
  if id >= t.next_id then t.next_id <- id + 1;
  (* Injection runs in dense order, so a strict [<] keeps the first
     minimum, as the install pass does. *)
  let fin = finish_of t slot in
  if fin < t.next_fin then begin
    t.next_fin <- fin;
    t.next_slot <- slot
  end;
  job

(* --- retirement -------------------------------------------------------- *)

(* The earliest predicted finish over the live set, first in dense
   order. *)
let rescan_next t =
  t.sweeps <- t.sweeps + 1;
  let best = ref infinity and best_slot = ref (-1) in
  for i = 0 to t.ndense - 1 do
    let s = t.dense_slot.(i) in
    if s >= 0 then begin
      let fin = finish_of t s in
      if fin < !best then begin
        best := fin;
        best_slot := s
      end
    end
  done;
  t.next_fin <- !best;
  t.next_slot <- !best_slot

(* Retire [job] without touching the earliest-finish record.  A running
   job's progress since the anchor enters the busy integral here, since
   no later settle will see it. *)
let retire_slot t job ~zero_remaining =
  let s = job.slot in
  let p = t.cols.c_procs.(s) in
  job.rem_final <- (if zero_remaining then 0. else rem_at t s);
  if p > 0. && t.clock > t.anchor then
    t.busy <- t.busy +. (p *. (t.clock -. t.anchor));
  count_procs t p (-1);
  job.slot <- (-1);
  t.dense_slot.(job.dpos) <- (-1);
  free_slot t s;
  t.nlive <- t.nlive - 1

let cancel t job =
  if job.slot < 0 then invalid_arg "State: job is not live";
  let s = job.slot in
  retire_slot t job ~zero_remaining:false;
  job.cancelled <- true;
  if s = t.next_slot then rescan_next t

(* A job whose predicted finish is not after the clock completes even
   when rounding left it more than [eps]: the prediction that fired was
   its own, and keeping it would re-arm the same instant forever. *)
let complete_due t ~eps f =
  t.sweeps <- t.sweeps + 1;
  let c = t.cols in
  let best = ref infinity and best_slot = ref (-1) in
  for i = 0 to t.ndense - 1 do
    let s = t.dense_slot.(i) in
    if s >= 0 && c.c_procs.(s) > 0. then begin
      let fin = finish_of t s in
      if fin <= t.clock || rem_at t s <= eps then begin
        let j = t.dense.(i) in
        retire_slot t j ~zero_remaining:true;
        j.finish <- Some t.clock;
        f j
      end
      else if fin < !best then begin
        best := fin;
        best_slot := s
      end
    end
  done;
  t.next_fin <- !best;
  t.next_slot <- !best_slot

(* --- iteration --------------------------------------------------------- *)

let live_count t = t.nlive

let live t =
  if t.nlive = 0 then [||]
  else begin
    compact t;
    t.sweeps <- t.sweeps + 1;
    Array.sub t.dense 0 t.nlive
  end

let running t = t.nrunning
let queued t = t.nqueued
let next_finish t = t.next_fin

let remaining_app job =
  if job.finish <> None || job.cancelled then
    invalid_arg "State.remaining_app: job is finished";
  Model.App.with_w job.app (remaining job *. job.app.Model.App.w)

let demand_summary t =
  t.sweeps <- t.sweeps + 1;
  let c = t.cols in
  let used = ref 0. and queued_w = ref 0. and total_w = ref 0. in
  for i = 0 to t.ndense - 1 do
    let s = t.dense_slot.(i) in
    if s >= 0 then begin
      let p = c.c_procs.(s) in
      used := !used +. p;
      let wk = rem_at t s *. (c.c_w.(s) *. c.c_access.(s)) in
      total_w := !total_w +. wk;
      if p = 0. then queued_w := !queued_w +. wk
    end
  done;
  (!used, !queued_w, !total_w)

(* --- allocation -------------------------------------------------------- *)

let rel_changed a b =
  Float.abs (a -. b) > 1e-9 *. Float.max 1e-30 (Float.max (Float.abs a) (Float.abs b))

(* Install one job's allocation: columns, the exe/access caches and the
   migration/epoch bookkeeping.  [access] is
   the access cost at [cache], derived by the solver.  Runs only on a
   settled state ([anchor = clock]), so [c_remaining] is current. *)
let set_alloc t job ~procs ~cache ~access =
  let c = t.cols and s = job.slot in
  let migrated =
    job.allocated
    && (rel_changed c.c_procs.(s) procs || rel_changed c.c_cache.(s) cache)
  in
  if migrated then job.migrations <- job.migrations + 1;
  count_procs t c.c_procs.(s) (-1);
  count_procs t procs 1;
  c.c_procs.(s) <- procs;
  c.c_cache.(s) <- cache;
  c.c_access.(s) <- access;
  let exe =
    if procs > 0. then
      ((c.c_s.(s) *. c.c_w.(s)) +. ((1. -. c.c_s.(s)) *. c.c_w.(s) /. procs))
      *. access
    else infinity
  in
  c.c_exe.(s) <- exe;
  if procs > 0. then job.allocated <- true;
  job.epoch <- job.epoch + 1;
  migrated

(* --- solver view ------------------------------------------------------- *)

type view = {
  v_n : int;
  v_slot : int array;
  v_remaining : float array;
  v_w : float array;
  v_s : float array;
  v_f : float array;
  v_m0 : float array;
  v_c0 : float array;
  v_fp : float array;
  v_d : float array;
  v_dpow : float array;
  v_capx : float array;
}

(* Move the anchor to the clock: write every running job's remaining
   fraction and fold its busy time, in dense order — the per-event
   integrator's loop, run once per epoch instead of once per event. *)
let settle t =
  if t.clock > t.anchor then begin
    let dt = t.clock -. t.anchor in
    let c = t.cols in
    for i = 0 to t.ndense - 1 do
      let s = t.dense_slot.(i) in
      if s >= 0 then begin
        let p = c.c_procs.(s) in
        if p > 0. then begin
          t.busy <- t.busy +. (p *. dt);
          let rem = c.c_remaining.(s) in
          if rem > 0. then
            c.c_remaining.(s) <- Float.max 0. (rem -. (dt /. c.c_exe.(s)))
        end
      end
    done
  end;
  t.anchor <- t.clock

let view t =
  compact t;
  t.sweeps <- t.sweeps + 1;
  settle t;
  let n = t.nlive in
  if Array.length t.view_slot < n then
    t.view_slot <- Array.make (max n ((2 * Array.length t.view_slot) + 8)) 0;
  Array.blit t.dense_slot 0 t.view_slot 0 n;
  let c = t.cols in
  {
    v_n = n;
    v_slot = t.view_slot;
    v_remaining = c.c_remaining;
    v_w = c.c_w;
    v_s = c.c_s;
    v_f = c.c_f;
    v_m0 = c.c_m0;
    v_c0 = c.c_c0;
    v_fp = c.c_fp;
    v_d = c.c_d;
    v_dpow = c.c_dpow;
    v_capx = c.c_capx;
  }

let apply_view t ~n ~procs ~cache ~access =
  if n <> t.nlive || t.ndense <> t.nlive || t.anchor <> t.clock then
    invalid_arg "State.apply_view: stale view";
  t.sweeps <- t.sweeps + 1;
  let migrations = ref 0 in
  let best = ref infinity and best_slot = ref (-1) in
  for i = 0 to n - 1 do
    let j = t.dense.(i) in
    if set_alloc t j ~procs:procs.(i) ~cache:cache.(i) ~access:access.(i) then
      incr migrations;
    let fin = finish_of t j.slot in
    if fin < !best then begin
      best := fin;
      best_slot := j.slot
    end
  done;
  t.next_fin <- !best;
  t.next_slot <- !best_slot;
  !migrations

(* --- bookkeeping ------------------------------------------------------- *)

let settled_busy t = t.busy

let busy_integral t =
  if t.clock > t.anchor && t.nrunning > 0 then begin
    t.sweeps <- t.sweeps + 1;
    let dt = t.clock -. t.anchor in
    let c = t.cols in
    let b = ref t.busy in
    for i = 0 to t.ndense - 1 do
      let s = t.dense_slot.(i) in
      if s >= 0 && c.c_procs.(s) > 0. then b := !b +. (c.c_procs.(s) *. dt)
    done;
    !b
  end
  else t.busy

let mem_stats t = (t.hwm, t.nfree, t.nlive, t.ndense)

let conservation_violation t =
  t.sweeps <- t.sweeps + 1;
  let p = t.platform.Model.Platform.p in
  let eps = 1e-6 in
  let bad = ref None in
  let set msg = if !bad = None then bad := Some msg in
  let c = t.cols in
  (* Kahan sums over the live columns, admission order. *)
  let tp = ref 0. and cp = ref 0. in
  let tx = ref 0. and cx = ref 0. in
  for i = 0 to t.ndense - 1 do
    let s = t.dense_slot.(i) in
    if s >= 0 then begin
      let pr = c.c_procs.(s) and x = c.c_cache.(s) in
      if pr < 0. then
        set
          (Printf.sprintf "job %d has negative processors %g" t.dense.(i).id pr);
      if x < 0. || x > 1. +. eps then
        set
          (Printf.sprintf "job %d has cache fraction %g outside [0,1]"
             t.dense.(i).id x);
      let y = pr -. !cp in
      let tn = !tp +. y in
      cp := tn -. !tp -. y;
      tp := tn;
      let y = x -. !cx in
      let tn = !tx +. y in
      cx := tn -. !tx -. y;
      tx := tn
    end
  done;
  if !tp > p *. (1. +. eps) then
    set
      (Printf.sprintf "processors oversubscribed: sum p_i = %.17g > p = %g" !tp
         p);
  if !tx > 1. +. eps then
    set (Printf.sprintf "cache oversubscribed: sum x_i = %.17g > 1" !tx);
  !bad

let assert_conservation t =
  match conservation_violation t with
  | None -> ()
  | Some msg -> failwith ("State: conservation violated: " ^ msg)
