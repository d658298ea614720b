type counters = {
  mutable solver_iters : int;
  mutable partition_ops : int;
  mutable resolves : int;
  mutable warm_hits : int;
  mutable cold_fallbacks : int;
}

let fresh_counters () =
  { solver_iters = 0; partition_ops = 0; resolves = 0; warm_hits = 0;
    cold_fallbacks = 0 }

type t = {
  mutable prev_k : float option;
  mutable prev_d : float;
      (* residual parallel demand [sum (1-s_i) c_i] at the last columnar
         solve — the scale behind the predicted warm seed (0 when
         unknown) *)
  mutable prev_boundary : int;
  counters : counters;
  ws : Sched.Workspace.t;
  (* Persistent warm-partition state: unboxed parallel arrays indexed by
     application position, plus the ratio-sorted permutation carried
     from the previous event.  Capacities grow amortised and never
     shrink; [pn] is the instance size at the last warm solve (0 when
     the state is cold). *)
  mutable pn : int;
  mutable ratio : float array;
  mutable weight : float array;
  mutable order : int array;
  mutable suffix : float array;
  mutable mark : bool array;
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
    ws = Sched.Workspace.create ();
    pn = 0;
    ratio = [||];
    weight = [||];
    order = [||];
    suffix = [||];
    mark = [||];
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

(* --- cold baseline: Algorithm 1 / MinRatio, with counted work ---------- *)

(* MinRatio consumes no randomness; the builder's [rng] parameter is
   satisfied by a shared dummy stream that is never advanced. *)
let dummy_rng = lazy (Util.Rng.create 0)

let cold_partition ?counters ~platform apps =
  let ops =
    match counters with
    | Some c -> Some (fun m -> c.partition_ops <- c.partition_ops + m)
    | None -> None
  in
  Sched.Partition_builder.build ?ops Sched.Partition_builder.Dominant
    Sched.Choice.MinRatio ~rng:(Lazy.force dummy_rng) ~platform ~apps

(* --- warm partition: maximal dominant suffix in ratio order ------------ *)

let ensure_capacity t n =
  if Array.length t.ratio < n then begin
    let cap = max n ((2 * Array.length t.ratio) + 8) in
    t.ratio <- Array.make cap 0.;
    t.weight <- Array.make cap 0.;
    t.order <- Array.make cap 0;
    t.suffix <- Array.make (cap + 1) 0.;
    t.mark <- Array.make cap false;
    t.xbuf <- Array.make cap 0.;
    t.sbuf <- Array.make cap 0.;
    t.cbuf <- Array.make cap 0.;
    t.abuf <- Array.make cap 0.;
    t.pbuf <- Array.make cap 0.;
    t.shares <- Array.make cap 0.;
    t.actv <- Array.make cap false;
    t.pn <- 0 (* the old permutation did not survive the regrowth *)
  end

(* Shared tail of the warm partition: given [t.ratio] and [t.weight]
   filled for positions 0..n-1, repair the carried permutation, restore
   sortedness, rebuild suffix sums and walk the dominant boundary.
   Returns the boundary [b]: sorted positions [b..n-1] are the maximal
   dominant suffix. *)
let warm_boundary t ~n =
  let c = t.counters in
  let ratio = t.ratio and weightv = t.weight and order = t.order in
  (* Repair the carried permutation into a permutation of 0..n-1: after
     an arrival the new position is appended, after a departure the
     stale positions are dropped and the survivors keep their relative
     order.  (Positions shift across a mid-array removal, so the seed
     can be imperfect for one event; the sort below restores exactness
     regardless — the seed only buys adaptivity.) *)
  if t.pn <> n then begin
    let mark = t.mark in
    let j = ref 0 in
    for k = 0 to t.pn - 1 do
      let v = order.(k) in
      if v < n && not mark.(v) then begin
        order.(!j) <- v;
        (* writes trail reads: [!j <= k] always *)
        mark.(v) <- true;
        incr j
      end
    done;
    for v = 0 to n - 1 do
      if not mark.(v) then begin
        order.(!j) <- v;
        incr j
      end
    done;
    for v = 0 to n - 1 do
      mark.(v) <- false
    done;
    t.pn <- n
  end;
  (* Adaptive insertion sort by (ratio, index) — the total order used by
     the cold eviction loop's MinRatio ties.  Consecutive events disturb
     the order by progress-driven drift and single arrivals/departures,
     so the carried permutation is nearly sorted and this pass is O(n +
     inversions), versus the full sort-from-scratch (with boxed tuple
     entries) the previous implementation paid per event.  A disordered
     permutation — the first solve of a fresh or restored instance —
     would make insertion quadratic (minutes at n = 1e5), so when the
     total shift distance blows past a linear budget the pass bails to
     [Array.sort] with the same comparator: the order is total, so the
     resulting permutation — and everything downstream — is identical. *)
  let budget = ref (8 * n) in
  let k = ref 1 in
  while !k < n && !budget >= 0 do
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
  if !budget < 0 then begin
    let cmp u v =
      match Float.compare ratio.(u) ratio.(v) with
      | 0 -> Int.compare u v
      | cmp -> cmp
    in
    (* [Array.sort] sorts a whole array; [order] is only meaningful on
       positions 0..n-1, so sort a copy of the slice when the scratch is
       larger. *)
    if Array.length order = n then Array.sort cmp order
    else begin
      let slice = Array.sub order 0 n in
      Array.sort cmp slice;
      Array.blit slice 0 order 0 n
    end
  end;
  (* suffix.(k) = sum of weights of sorted entries k..n-1 *)
  let suffix = t.suffix in
  suffix.(n) <- 0.;
  for k = n - 1 downto 0 do
    suffix.(k) <- suffix.(k + 1) +. weightv.(order.(k))
  done;
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

type mode = Warm

let solve t ~platform ~apps =
  if Array.length apps = 0 then invalid_arg "Incremental.solve: empty instance";
  t.counters.resolves <- t.counters.resolves + 1;
  let subset = cold_partition ~counters:t.counters ~platform apps in
  let x = Theory.Dominant.cache_allocation_capped ~platform ~apps subset in
  let iters = ref 0 in
  let schedule, k =
    Sched.Equalize.schedule_k ~iters ~ws:t.ws ~platform ~apps x
  in
  t.counters.solver_iters <- t.counters.solver_iters + !iters;
  (schedule, k)

(* --- columnar re-solve (the online hot path) --------------------------- *)

(* The warm re-solve rewritten against {!State.view}: every per-position
   pass reads the state's flat columns and writes a position-indexed
   scratch buffer, so a re-solve materializes no [Model.App.t] values at
   all.  The three embarrassingly parallel passes — weight/ratio fill,
   work-cost fill and processor-share fill — optionally shard across an
   {!Exec.Pool}; each shard writes disjoint positions and all reductions
   (demand sum, Kahan processor total) stay sequential, so the sharded
   result is bit-identical to the sequential one whatever the pool size
   or chunking.  [shard_min] keeps small instances on the sequential
   path where fan-out overhead would dominate. *)
let solve_state t ?pool ?(shard_min = 4096) ~elapsed ~state () =
  let v = State.view state in
  let n = v.State.v_n in
  if n = 0 then invalid_arg "Incremental.solve_state: empty instance";
  (* Probes off: [sp] is the null handle, [ops0] is an int read — the
     event loop allocates exactly what it did uninstrumented
     (test/test_obs.ml holds this path to zero extra minor words). *)
  let sp = Obs.Span.start "online.resolve" in
  let ops0 = t.counters.partition_ops in
  t.counters.resolves <- t.counters.resolves + 1;
  ensure_capacity t n;
  let platform = State.platform state in
  let alpha = platform.Model.Platform.alpha in
  let cs = platform.Model.Platform.cs in
  let ls = platform.Model.Platform.ls in
  let ll = platform.Model.Platform.ll in
  let slot = v.State.v_slot in
  let pool =
    match pool with
    | Some p when n >= shard_min && Exec.Pool.size p > 0 -> Some p
    | _ -> None
  in
  let shard f =
    match pool with Some p -> Exec.Pool.run_chunks p ~n f | None -> f 0 n
  in
  let ratio = t.ratio and weightv = t.weight in
  let xbuf = t.xbuf and sbuf = t.sbuf and cbuf = t.cbuf in
  let abuf = t.abuf and pbuf = t.pbuf in
  (* Pass 1 — dominant-partition weight and ratio per position, exactly
     {!Theory.Dominant}'s arithmetic on the residual application
     [w = remaining * w0]; [d] and [d ** (1/alpha)] come cached from the
     state columns. *)
  shard (fun lo hi ->
      for i = lo to hi - 1 do
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
      done);
  t.counters.partition_ops <- t.counters.partition_ops + (2 * n);
  let b = warm_boundary t ~n in
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
  (* Pass 2 — access and residual work cost at the chosen cache split
     (the Eq. (2) chain inlined over the columns), plus the sequential
     fractions the root-finder reads. *)
  shard (fun lo hi ->
      for i = lo to hi - 1 do
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
      done);
  (* Residual parallel demand [D = sum (1-s_i) c_i], sequentially, in
     position order — the makespan scales near-linearly with it, so
     [prev_k * D/prev_D] predicts the new root far better than ageing
     the old one by wall-clock progress. *)
  let d_tot = ref 0. in
  for i = 0 to n - 1 do
    d_tot := !d_tot +. ((1. -. sbuf.(i)) *. cbuf.(i))
  done;
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
    Sched.Equalize.solve_cols ?warm ~iters ?pool ~platform ~s:sbuf ~costs:cbuf
      ~n ()
  in
  t.counters.solver_iters <- t.counters.solver_iters + !iters;
  t.prev_k <- Some k;
  t.prev_d <- !d_tot;
  (* Pass 3 — equalising processor shares [p_i = (1-s_i)/(K/c_i - s_i)],
     then the exact-conservation rescale with the same Kahan total as
     {!Sched.Equalize.schedule_k}. *)
  shard (fun lo hi ->
      for i = lo to hi - 1 do
        let denom = (k /. cbuf.(i)) -. sbuf.(i) in
        pbuf.(i) <- (if denom <= 0. then infinity else (1. -. sbuf.(i)) /. denom)
      done);
  let total = Util.Floatx.sum_array ~n pbuf in
  let factor = platform.Model.Platform.p /. total in
  for i = 0 to n - 1 do
    pbuf.(i) <- pbuf.(i) *. factor
  done;
  let migrations =
    State.apply_view state ~n ~procs:pbuf ~cache:xbuf ~access:abuf
  in
  if Obs.Probe.on () then begin
    Obs.Metrics.add m_partition_ops (t.counters.partition_ops - ops0);
    Obs.Metrics.add m_solver_iters !iters;
    Obs.Span.add_attr sp "mode" "warm";
    Obs.Span.add_attr sp "n" (string_of_int n);
    Obs.Span.add_attr sp "k" (Printf.sprintf "%.6g" k);
    Obs.Span.stop sp
  end;
  (k, migrations)
