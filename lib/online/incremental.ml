type counters = {
  mutable solver_iters : int;
  mutable partition_ops : int;
  mutable resolves : int;
  mutable warm_hits : int;
  mutable cold_fallbacks : int;
  mutable sort_shifts : int;
  mutable sort_fallbacks : int;
}

let fresh_counters () =
  { solver_iters = 0; partition_ops = 0; resolves = 0; warm_hits = 0;
    cold_fallbacks = 0; sort_shifts = 0; sort_fallbacks = 0 }

type t = {
  mutable prev_k : float option;
  mutable prev_d : float;
      (* residual parallel demand [sum (1-s_i) c_i] at the last columnar
         solve — the scale behind the predicted warm seed (0 when
         unknown) *)
  mutable prev_boundary : int;
  counters : counters;
  (* Persistent warm-partition state.  [ratio], [weight], [order] and
     [suffix] are position-indexed scratch for the current solve; [carry]
     holds the previous solve's sorted order as (slot, generation) keys
     (see [key]) — one per job, so the carry survives departures
     anywhere in the arrival order and never hands a recycled slot its
     previous owner's place.  [pn] is the carried order's length (0 when
     the state is cold); [pos_of] is slot-indexed.  Capacities grow
     amortised, never shrink, and keep the carried order across
     growth. *)
  mutable pn : int;
  mutable ratio : float array;
  mutable weight : float array;
  mutable order : int array;
  mutable suffix : float array;
  mutable carry : int array;
  mutable pos_of : int array;
  (* Columnar-solve scratch, position-indexed (see [solve_state]): cache
     fractions, sequential fractions, residual work costs, access costs,
     processor shares, water-filling shares and the active set. *)
  mutable xbuf : float array;
  mutable sbuf : float array;
  mutable cbuf : float array;
  mutable abuf : float array;
  mutable pbuf : float array;
  mutable shares : float array;
  mutable actv : bool array;
}

let create () =
  {
    prev_k = None;
    prev_d = 0.;
    prev_boundary = 0;
    counters = fresh_counters ();
    pn = 0;
    ratio = [||];
    weight = [||];
    order = [||];
    suffix = [||];
    carry = [||];
    pos_of = [||];
    xbuf = [||];
    sbuf = [||];
    cbuf = [||];
    abuf = [||];
    pbuf = [||];
    shares = [||];
    actv = [||];
  }

let counters t = t.counters
let prev_demand t = t.prev_d

let reseed t ~prev_k ~prev_d =
  t.prev_k <- prev_k;
  t.prev_d <- prev_d

let sorted_positions t =
  Array.init t.pn (fun k -> (t.order.(k), t.ratio.(t.order.(k))))

(* --- warm partition: maximal dominant suffix in ratio order ------------ *)

let ensure_capacity t n =
  if Array.length t.ratio < n then begin
    let cap = max n ((2 * Array.length t.ratio) + 8) in
    t.ratio <- Array.make cap 0.;
    t.weight <- Array.make cap 0.;
    t.order <- Array.make cap 0;
    t.suffix <- Array.make (cap + 1) 0.;
    let carry = Array.make cap 0 in
    Array.blit t.carry 0 carry 0 t.pn;
    t.carry <- carry;
    t.xbuf <- Array.make cap 0.;
    t.sbuf <- Array.make cap 0.;
    t.cbuf <- Array.make cap 0.;
    t.abuf <- Array.make cap 0.;
    t.pbuf <- Array.make cap 0.;
    t.shares <- Array.make cap 0.;
    t.actv <- Array.make cap false
  end

(* A job's (slot, generation) pair as one int: state slots stay below
   2^31, and a slot would need 2^32 admissions to wrap its generation. *)
let slot_bits = 31
let key ~slot ~gen = (gen lsl slot_bits) lor slot

(* Shared tail of the warm partition: given [t.ratio] and [t.weight]
   filled for positions 0..n-1 of the view whose position-to-slot map is
   [slot] and whose per-slot generations are [gen], rebuild the sorted
   order from the carried one, rebuild suffix sums and walk the dominant
   boundary.  Returns the boundary [b]: sorted positions [b..n-1] are the
   maximal dominant suffix.

   The order is the unique sort by (ratio, position) — the total order
   of the cold eviction loop's MinRatio ties — so however it is reached,
   everything downstream is the same. *)
let warm_boundary t ~n ~slot ~gen =
  let c = t.counters in
  let ratio = t.ratio and weightv = t.weight and order = t.order in
  let cmp u v =
    match Float.compare ratio.(u) ratio.(v) with
    | 0 -> Int.compare u v
    | cmp -> cmp
  in
  (* Survivors: the carried entries whose job is still live, at their
     current positions, in carried order.  Slot [s] is live at
     [p = pos_of.(s)] iff [p < n && slot.(p) = s] (stale entries of
     [pos_of] fail the test, so it is never cleared); a recycled slot
     has a new generation and drops out.  A survivor's [pos_of] is then
     set to [n], so the positions that still map to themselves are the
     arrivals. *)
  if Array.length t.pos_of < Array.length gen then
    t.pos_of <- Array.make (Array.length gen) 0;
  let pos_of = t.pos_of and carry = t.carry in
  for i = 0 to n - 1 do
    pos_of.(slot.(i)) <- i
  done;
  let m = ref 0 in
  for k = 0 to t.pn - 1 do
    let s = carry.(k) land ((1 lsl slot_bits) - 1) in
    if s < Array.length gen && carry.(k) = key ~slot:s ~gen:gen.(s) then begin
      let p = pos_of.(s) in
      if p < n && slot.(p) = s then begin
        order.(!m) <- p;
        pos_of.(s) <- n;
        incr m
      end
    end
  done;
  let m = !m in
  (* Arrivals follow in [order.(m..n-1)]. *)
  let a = ref m in
  for i = 0 to n - 1 do
    if pos_of.(slot.(i)) = i then begin
      order.(!a) <- i;
      incr a
    end
  done;
  (* Progress drifts the survivors' ratios smoothly, so their carried
     order is nearly sorted: an adaptive insertion sort restores it in
     O(m + inversions) shifts.  Should the shift distance pass a linear
     budget, the pass bails and the survivors are sorted with the
     arrivals below. *)
  let budget = ref (8 * n) in
  let k = ref 1 in
  while !k < m && !budget >= 0 do
    let v = order.(!k) in
    let rv = ratio.(v) in
    let j = ref (!k - 1) in
    let continue_ = ref true in
    while !continue_ && !j >= 0 do
      let u = order.(!j) in
      let ru = ratio.(u) in
      if ru > rv || (ru = rv && u > v) then begin
        order.(!j + 1) <- u;
        decr j;
        decr budget
      end
      else continue_ := false
    done;
    order.(!j + 1) <- v;
    incr k
  done;
  c.sort_shifts <- c.sort_shifts + ((8 * n) - !budget);
  let m = if !budget < 0 then 0 else m in
  (* A sort from scratch: the insertion pass bailed, or nothing carried
     survived (the first solve after create or restore). *)
  if m = 0 && n > 1 then c.sort_fallbacks <- c.sort_fallbacks + 1;
  (* Sort the few arrivals, then merge them into the survivors from the
     back: one O(n) pass that never overwrites an unread survivor. *)
  let arr = Array.sub order m (n - m) in
  Array.sort cmp arr;
  let i = ref (m - 1) and j = ref (n - m - 1) and w = ref (n - 1) in
  while !j >= 0 do
    let v = arr.(!j) in
    let take_survivor =
      !i >= 0
      &&
      let u = order.(!i) in
      let ru = ratio.(u) and rv = ratio.(v) in
      ru > rv || (ru = rv && u > v)
    in
    if take_survivor then begin
      order.(!w) <- order.(!i);
      decr i
    end
    else begin
      order.(!w) <- v;
      decr j
    end;
    decr w
  done;
  (* suffix.(k) = sum of weights of sorted entries k..n-1; the same pass
     records the order by job for the next solve. *)
  let suffix = t.suffix in
  suffix.(n) <- 0.;
  for k = n - 1 downto 0 do
    let p = order.(k) in
    suffix.(k) <- suffix.(k + 1) +. weightv.(p);
    let s = slot.(p) in
    carry.(k) <- key ~slot:s ~gen:gen.(s)
  done;
  t.pn <- n;
  c.partition_ops <- c.partition_ops + n;
  (* The suffix starting at k is dominant iff its minimum-ratio member —
     the sorted entry at k itself — beats the suffix weight sum;
     [ratio - suffix sum] is nondecreasing in k, so the feasible starts
     form a suffix of positions and the boundary can be walked from its
     previous value. *)
  let dominant_at k =
    c.partition_ops <- c.partition_ops + 1;
    k >= n || ratio.(order.(k)) > suffix.(k)
  in
  let b = ref (min (max t.prev_boundary 0) n) in
  while !b > 0 && dominant_at (!b - 1) do
    decr b
  done;
  while not (dominant_at !b) do
    incr b
  done;
  t.prev_boundary <- !b;
  !b

(* --- full re-solve ----------------------------------------------------- *)

let m_resolves =
  Obs.Metrics.counter ~help:"incremental re-solves run" "incremental.resolves"

let m_warm_hits =
  Obs.Metrics.counter
    ~help:"warm-mode re-solves seeded by a previous makespan"
    "incremental.warm_hits"

let m_cold_falls =
  Obs.Metrics.counter
    ~help:"warm-mode re-solves that fell back to a cold bracket"
    "incremental.cold_fallbacks"

let m_partition_ops =
  Obs.Metrics.counter ~help:"partition-repair operations"
    "incremental.partition_ops"

let m_solver_iters =
  Obs.Metrics.counter ~help:"root-finder evaluations spent in re-solves"
    "incremental.solver_iters"

let m_sort_shifts =
  Obs.Metrics.counter ~help:"insertion shifts restoring the carried order"
    "incremental.sort_shifts"

let m_sort_falls =
  Obs.Metrics.counter ~help:"re-solves that sorted the live set from scratch"
    "incremental.sort_fallbacks"

type mode = Warm

(* --- columnar re-solve (the online hot path) --------------------------- *)

(* The warm re-solve rewritten against {!State.view}: every per-position
   pass reads the state's flat columns and writes a position-indexed
   scratch buffer, so a re-solve materializes no [Model.App.t] values at
   all. *)
let solve_state t ~elapsed ~state =
  let v = State.view state in
  let n = v.State.v_n in
  if n = 0 then invalid_arg "Incremental.solve_state: empty instance";
  (* Probes off: [sp] is the null handle, [ops0] is an int read — the
     event loop allocates exactly what it did uninstrumented
     (test/test_obs.ml holds this path to zero extra minor words). *)
  let sp = Obs.Span.start "online.resolve" in
  let phase = Obs.Span.start "online.resolve.partition" in
  let ops0 = t.counters.partition_ops in
  let shifts0 = t.counters.sort_shifts and falls0 = t.counters.sort_fallbacks in
  t.counters.resolves <- t.counters.resolves + 1;
  ensure_capacity t n;
  let platform = State.platform state in
  let alpha = platform.Model.Platform.alpha in
  let cs = platform.Model.Platform.cs in
  let ls = platform.Model.Platform.ls in
  let ll = platform.Model.Platform.ll in
  let slot = v.State.v_slot in
  let ratio = t.ratio and weightv = t.weight in
  let xbuf = t.xbuf and sbuf = t.sbuf and cbuf = t.cbuf in
  let abuf = t.abuf and pbuf = t.pbuf in
  (* Pass 1 — dominant-partition weight and ratio per position, exactly
     {!Theory.Dominant}'s arithmetic on the residual application
     [w = remaining * w0]; [d] and [d ** (1/alpha)] come cached from the
     state columns. *)
  for i = 0 to n - 1 do
    let s = slot.(i) in
    let d = v.State.v_d.(s) in
    let w =
      (v.State.v_remaining.(s) *. v.State.v_w.(s) *. v.State.v_f.(s) *. d)
      ** (1. /. (alpha +. 1.))
    in
    let r =
      if d = 0. then if w > 0. then infinity else 0.
      else w /. v.State.v_dpow.(s)
    in
    weightv.(i) <- w;
    ratio.(i) <- r
  done;
  t.counters.partition_ops <- t.counters.partition_ops + (2 * n);
  let b = warm_boundary t ~n ~slot ~gen:v.State.v_gen in
  (* Capped water-filling over the dominant suffix —
     {!Theory.Dominant.cache_allocation_capped} verbatim, with the caps
     read from the [v_capx] column and the active set / share scratch
     reused across re-solves. *)
  let actv = t.actv and shares = t.shares in
  let order = t.order in
  for i = 0 to n - 1 do
    actv.(i) <- false;
    xbuf.(i) <- 0.
  done;
  for k = b to n - 1 do
    actv.(order.(k)) <- true
  done;
  let budget = ref 1. in
  let continue_ = ref true in
  while !continue_ do
    let total = ref 0. in
    for i = 0 to n - 1 do
      if actv.(i) then total := !total +. weightv.(i)
    done;
    if !total <= 0. || !budget <= 0. then begin
      for i = 0 to n - 1 do
        if actv.(i) then xbuf.(i) <- 0.
      done;
      continue_ := false
    end
    else begin
      for i = 0 to n - 1 do
        if actv.(i) then shares.(i) <- !budget *. weightv.(i) /. !total
      done;
      let clamped = ref false in
      for i = 0 to n - 1 do
        if actv.(i) then begin
          let cap = v.State.v_capx.(slot.(i)) in
          if shares.(i) >= cap then begin
            xbuf.(i) <- cap;
            budget := !budget -. cap;
            actv.(i) <- false;
            clamped := true
          end
        end
      done;
      if not !clamped then begin
        for i = 0 to n - 1 do
          if actv.(i) then xbuf.(i) <- shares.(i)
        done;
        continue_ := false
      end
    end
  done;
  Obs.Span.stop phase;
  let phase = Obs.Span.start "online.resolve.cost" in
  (* Pass 2 — access and residual work cost at the chosen cache split
     (the Eq. (2) chain inlined over the columns), plus the sequential
     fractions the root-finder reads. *)
  for i = 0 to n - 1 do
    let s = slot.(i) in
    let x = xbuf.(i) in
    let eff = Float.min (x *. cs) v.State.v_fp.(s) in
    let m0 = v.State.v_m0.(s) in
    let miss =
      if m0 = 0. then 0.
      else if eff = 0. then 1.
      else Float.min 1. (m0 *. ((v.State.v_c0.(s) /. eff) ** alpha))
    in
    let access = 1. +. (v.State.v_f.(s) *. (ls +. (ll *. miss))) in
    abuf.(i) <- access;
    cbuf.(i) <- v.State.v_remaining.(s) *. v.State.v_w.(s) *. access;
    sbuf.(i) <- v.State.v_s.(s)
  done;
  (* Residual parallel demand [D = sum (1-s_i) c_i], in position order —
     the makespan scales near-linearly with it, so [prev_k * D/prev_D]
     predicts the new root far better than ageing the old one by
     wall-clock progress. *)
  let d_tot = ref 0. in
  for i = 0 to n - 1 do
    d_tot := !d_tot +. ((1. -. sbuf.(i)) *. cbuf.(i))
  done;
  Obs.Span.stop phase;
  let phase = Obs.Span.start "online.resolve.root" in
  let warm =
    match t.prev_k with
    | Some pk ->
      let predicted =
        if t.prev_d > 0. && !d_tot > 0. then pk *. (!d_tot /. t.prev_d)
        else pk -. elapsed
      in
      if Float.is_finite predicted && predicted > 0. then Some predicted
      else None
    | None -> None
  in
  (match warm with
  | Some _ -> t.counters.warm_hits <- t.counters.warm_hits + 1
  | None -> t.counters.cold_fallbacks <- t.counters.cold_fallbacks + 1);
  if Obs.Probe.on () then begin
    Obs.Metrics.incr m_resolves;
    match warm with
    | Some _ -> Obs.Metrics.incr m_warm_hits
    | None -> Obs.Metrics.incr m_cold_falls
  end;
  let iters = ref 0 in
  let k =
    Sched.Equalize.solve_cols ?warm ~iters ~platform ~s:sbuf ~costs:cbuf ~n ()
  in
  t.counters.solver_iters <- t.counters.solver_iters + !iters;
  t.prev_k <- Some k;
  t.prev_d <- !d_tot;
  Obs.Span.stop phase;
  let phase = Obs.Span.start "online.resolve.install" in
  (* Pass 3 — equalising processor shares [p_i = (1-s_i)/(K/c_i - s_i)],
     then the exact-conservation rescale with the same Kahan total as
     {!Sched.Equalize.schedule_k}. *)
  for i = 0 to n - 1 do
    let denom = (k /. cbuf.(i)) -. sbuf.(i) in
    pbuf.(i) <- (if denom <= 0. then infinity else (1. -. sbuf.(i)) /. denom)
  done;
  let total = Util.Floatx.sum_array ~n pbuf in
  let factor = platform.Model.Platform.p /. total in
  for i = 0 to n - 1 do
    pbuf.(i) <- pbuf.(i) *. factor
  done;
  let migrations =
    State.apply_view state ~n ~procs:pbuf ~cache:xbuf ~access:abuf
  in
  Obs.Span.stop phase;
  if Obs.Probe.on () then begin
    Obs.Metrics.add m_partition_ops (t.counters.partition_ops - ops0);
    Obs.Metrics.add m_sort_shifts (t.counters.sort_shifts - shifts0);
    Obs.Metrics.add m_sort_falls (t.counters.sort_fallbacks - falls0);
    Obs.Metrics.add m_solver_iters !iters;
    Obs.Span.add_attr sp "mode" "warm";
    Obs.Span.add_attr sp "n" (string_of_int n);
    Obs.Span.add_attr sp "k" (Printf.sprintf "%.6g" k);
    Obs.Span.stop sp
  end;
  (k, migrations)
