type counters = {
  mutable solver_iters : int;
  mutable partition_ops : int;
  mutable resolves : int;
  mutable warm_hits : int;
  mutable cold_fallbacks : int;
  mutable select_ops : int;
}

let fresh_counters () =
  { solver_iters = 0; partition_ops = 0; resolves = 0; warm_hits = 0;
    cold_fallbacks = 0; select_ops = 0 }

type t = {
  mutable prev_k : float option;
  mutable prev_d : float;
      (* residual parallel demand [sum (1-s_i) c_i] at the last columnar
         solve — the scale behind the predicted warm seed (0 when
         unknown) *)
  counters : counters;
  (* Position-indexed scratch for the current solve, grown amortised and
     never shrunk: dominant-partition ratios and weights, the eviction
     candidates ([cand.(0 .. evicted-1)] are the last solve's evictees
     once the boundary is found), then the columnar-solve buffers —
     cache fractions, sequential fractions, residual work costs, access
     costs, processor shares, water-filling shares and the active
     set. *)
  mutable ratio : float array;
  mutable weight : float array;
  mutable cand : int array;
  mutable evicted : int;
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
    counters = fresh_counters ();
    ratio = [||];
    weight = [||];
    cand = [||];
    evicted = 0;
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

let evicted_positions t = Array.sub t.cand 0 t.evicted

let ensure_capacity t n =
  if Array.length t.ratio < n then begin
    let cap = max n ((2 * Array.length t.ratio) + 8) in
    t.ratio <- Array.make cap 0.;
    t.weight <- Array.make cap 0.;
    t.cand <- Array.make cap 0;
    t.xbuf <- Array.make cap 0.;
    t.sbuf <- Array.make cap 0.;
    t.cbuf <- Array.make cap 0.;
    t.abuf <- Array.make cap 0.;
    t.pbuf <- Array.make cap 0.;
    t.shares <- Array.make cap 0.;
    t.actv <- Array.make cap false
  end

(* --- warm partition: the dominant boundary by selection ----------------- *)

(* The order of Algorithm 1's MinRatio evictions on non-NaN ratios:
   by ratio, ties by position. *)
let[@inline] before (ratio : float array) u v =
  let ru = ratio.(u) and rv = ratio.(v) in
  ru < rv || (ru = rv && u < v)

let[@inline] swap (a : int array) i j =
  let u = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- u

(* Given [t.ratio] and [t.weight] filled for positions 0..n-1 and their
   weight sum [total], find the jobs Algorithm 1 with MinRatio evicts:
   in the order by (ratio, position), the shortest prefix after which
   the first remaining job's ratio beats the remaining weight sum.
   Leaves them in [t.cand.(0 .. b-1)] and returns [b].

   An evictee at sorted index k has [ratio <= S_k <= total], where S_k
   is the weight sum from k on, so one filter pass keeps only the jobs
   with [not (ratio > total)].  NaN ratios sort first and never beat a
   sum, so the filter evicts them outright.  A quickselect over the
   rest finds the boundary: [cand.(0 .. lo-1)] are known evicted,
   [cand.(hi .. m-1)] known kept, and [s] is [total] less the weights
   of the evicted.  A pivot is kept iff its ratio beats [s] less the
   weights of the candidates below it; since [ratio - S_k] is
   nondecreasing along the order, everything above a kept pivot is kept
   and everything below an evicted one is evicted.  Median of three
   keeps the expected work at O(m). *)
let select_boundary t ~n ~total =
  let c = t.counters in
  let ratio = t.ratio and weightv = t.weight and cand = t.cand in
  let lo = ref 0 and m = ref 0 and s = ref total in
  for i = 0 to n - 1 do
    let r = ratio.(i) in
    if not (r > total) then begin
      if Float.is_nan r then begin
        cand.(!m) <- cand.(!lo);
        cand.(!lo) <- i;
        incr lo;
        s := !s -. weightv.(i)
      end
      else cand.(!m) <- i;
      incr m
    end
  done;
  c.partition_ops <- c.partition_ops + n;
  let hi = ref !m in
  while !lo < !hi do
    let a = !lo and z = !hi - 1 in
    let mid = a + ((z - a) / 2) in
    if before ratio cand.(mid) cand.(a) then swap cand mid a;
    if before ratio cand.(z) cand.(a) then swap cand z a;
    if before ratio cand.(z) cand.(mid) then swap cand z mid;
    swap cand mid z;
    let p = cand.(z) in
    let rp = ratio.(p) in
    (* Lomuto's partition, branch-free: on unsorted candidates the
       comparison is a coin flip, and a mispredicted branch costs more
       than the two stores it would save.  Positions in [cand] are
       below [n], within every array read here. *)
    let q = ref a in
    for i = a to z - 1 do
      let u = Array.unsafe_get cand i in
      let ru = Array.unsafe_get ratio u in
      Array.unsafe_set cand i (Array.unsafe_get cand !q);
      Array.unsafe_set cand !q u;
      q := !q + Bool.to_int (ru < rp) + (Bool.to_int (ru = rp) land Bool.to_int (u < p))
    done;
    let below = ref 0. in
    for i = a to !q - 1 do
      below := !below +. Array.unsafe_get weightv (Array.unsafe_get cand i)
    done;
    swap cand !q z;
    c.select_ops <- c.select_ops + (z - a + 1);
    c.partition_ops <- c.partition_ops + 1;
    let sq = !s -. !below in
    if ratio.(p) > sq then hi := !q
    else begin
      lo := !q + 1;
      s := sq -. weightv.(p)
    end
  done;
  t.evicted <- !lo;
  !lo

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

let m_select_ops =
  Obs.Metrics.counter ~help:"candidates visited selecting the dominant boundary"
    "incremental.select_ops"

type mode = Warm

(* --- columnar re-solve (the online hot path) --------------------------- *)

(* The warm re-solve rewritten against {!State.view}: every per-position
   pass reads the state's flat columns and writes a position-indexed
   scratch buffer, so a re-solve materializes no [Model.App.t] values at
   all. *)
let solve_state t ~elapsed ~state =
  if State.live_count state = 0 then
    invalid_arg "Incremental.solve_state: empty instance";
  (* Probes off: [sp] is the null handle, [ops0] is an int read — the
     event loop allocates exactly what it did uninstrumented
     (test/test_obs.ml holds this path to zero extra minor words). *)
  let sp = Obs.Span.start "online.resolve" in
  let phase = Obs.Span.start "online.resolve.settle" in
  let v = State.view state in
  let n = v.State.v_n in
  Obs.Span.stop phase;
  let phase = Obs.Span.start "online.resolve.partition" in
  let ops0 = t.counters.partition_ops and sel0 = t.counters.select_ops in
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
     state columns.  The weight sum is taken in position order. *)
  let wsum = ref 0. in
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
    ratio.(i) <- r;
    wsum := !wsum +. w
  done;
  t.counters.partition_ops <- t.counters.partition_ops + (2 * n);
  let b = select_boundary t ~n ~total:!wsum in
  (* Capped water-filling over the dominant set — every job but the [b]
     evictees — {!Theory.Dominant.cache_allocation_capped} verbatim, with
     the caps read from the [v_capx] column and the active set / share
     scratch reused across re-solves. *)
  let actv = t.actv and shares = t.shares and cand = t.cand in
  for i = 0 to n - 1 do
    actv.(i) <- true;
    xbuf.(i) <- 0.
  done;
  for k = 0 to b - 1 do
    actv.(cand.(k)) <- false
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
    Obs.Metrics.add m_select_ops (t.counters.select_ops - sel0);
    Obs.Metrics.add m_solver_iters !iters;
    Obs.Span.add_attr sp "mode" "warm";
    Obs.Span.add_attr sp "n" (string_of_int n);
    Obs.Span.add_attr sp "k" (Printf.sprintf "%.6g" k);
    Obs.Span.stop sp
  end;
  (k, migrations)
