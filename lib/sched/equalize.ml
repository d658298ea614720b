let work_costs ~platform ~apps ~x =
  if Array.length apps <> Array.length x then
    invalid_arg "Equalize: apps and cache fractions must have the same length";
  Array.map2
    (fun app xi -> Model.Exec_model.work_cost ~app ~platform ~x:xi)
    apps x

(* --- allocation-free makespan root-finder ------------------------------- *)

(* Mutable root-finder state.  All fields are floats, so the record is a
   flat float block: every store below writes unboxed, and one solve
   allocates exactly this block (plus the [eval] closure) up front —
   zero minor-heap words per objective evaluation, which is what the
   solver section of bench/main asserts for both entry points.
   Endpoint values are carried instead of re-evaluated. *)
type state = {
  mutable k : float;    (* probe point *)
  mutable fk : float;   (* excess at [k] *)
  mutable lo : float;
  mutable flo : float;
  mutable hi : float;
  mutable fhi : float;
  mutable acc : float;  (* demand accumulator / running max *)
}

(* Relative bracket width at the entry of the last refinement, written
   only when probes are on.  A one-slot float array stores unboxed (a
   [float ref] would box every store); a racy cross-domain write at
   worst attributes one solve's width to another in the histogram. *)
let last_bracket = [| Float.nan |]

(* Chunk width of the demand-sum association.  Instances up to one chunk
   sum in a plain loop; larger ones sum per-chunk partials in ascending
   chunk order.  The chunking stays, in one domain, because makespans
   above 2048 jobs were recorded with it (test_online pins two at
   n = 2500) and a plain left fold would move their last bits. *)
let eval_chunk = 2048

(* Solve [sum_i (1-s_i)/(K/c_i - s_i) = p] for [K] over the columns
   [s.(0 .. n-1)] and [costs.(0 .. n-1)] (either may be a larger
   buffer).  One core establishes the bracket — the
   all-processors lower bound, then either a warm seed grown or shrunk
   by 1.25 or the cold bracket doubled from "one processor each" — and
   hands it to the refinement its entry point fixes: bisection
   ([illinois = false], the paper entries) or Illinois false position
   ([illinois = true], {!solve_cols}).  Both stop at the same
   [hi - lo <= tol * (1 + |mid|)] criterion. *)
let root ~illinois ?(tol = 1e-13) ?warm ?iters ~platform
    ~(s : float array) ~(costs : float array) ~n () =
  if n = 0 then invalid_arg "Equalize: empty instance";
  let p = platform.Model.Platform.p in
  let count = match iters with Some r -> r | None -> ref 0 in
  let st =
    { k = 0.; fk = 0.; lo = 0.; flo = 0.; hi = 0.; fhi = 0.; acc = 0. }
  in
  let chunks = ((n - 1) / eval_chunk) + 1 in
  let base = n / chunks and rem = n mod chunks in
  (* Excess processor demand at [st.k], into [st.fk]: [chunks] contiguous
     chunks, the remainder spread over the leading ones. *)
  let eval () =
    incr count;
    st.acc <- 0.;
    for c = 0 to chunks - 1 do
      let lo = (c * base) + if c < rem then c else rem in
      let hi = lo + base + if c < rem then 1 else 0 in
      let part = ref 0. in
      for i = lo to hi - 1 do
        let si = Array.unsafe_get s i in
        let denom = (st.k /. Array.unsafe_get costs i) -. si in
        part :=
          !part +. (if denom <= 0. then infinity else (1. -. si) /. denom)
      done;
      st.acc <- st.acc +. !part
    done;
    st.fk <- st.acc -. p;
    if Float.is_nan st.fk then
      raise (Util.Solver.Non_finite { fn = "equalize"; x = st.k })
  in
  (* Refine a bracket with known endpoint values, [flo > 0 > fhi] (the
     demand excess decreases in k).  Bisection probes the midpoint;
     Illinois probes the secant root, halving the value of an endpoint
     that stays put twice running, and falls back to the midpoint when
     the secant leaves the open interval — so it never progresses slower
     than bisection.  A secant root that rounds onto an endpoint (with
     both endpoint values finite) ends the solve at that endpoint: its
     excess is then below the other's by more than the ratio of one ulp
     to the bracket width, so it sits on the root to float precision,
     and bisecting would only halve the bracket down to [tol] around
     it. *)
  let refine lo hi flo fhi =
    if Obs.Probe.on () then
      last_bracket.(0) <- (hi -. lo) /. (0.5 *. (lo +. hi));
    st.lo <- lo;
    st.hi <- hi;
    st.flo <- flo;
    st.fhi <- fhi;
    let side = ref 0 in
    let it = ref 200 in
    let continue_ = ref true in
    while !continue_ do
      let mid = 0.5 *. (st.lo +. st.hi) in
      let x =
        if illinois then
          st.hi -. (st.fhi *. (st.hi -. st.lo) /. (st.fhi -. st.flo))
        else mid
      in
      if st.hi -. st.lo <= tol *. (1.0 +. abs_float mid) || !it = 0 then begin
        st.k <- mid;
        continue_ := false
      end
      else if
        illinois && (x = st.lo || x = st.hi) && Float.is_finite (st.fhi -. st.flo)
      then begin
        st.k <- x;
        continue_ := false
      end
      else begin
        st.k <- (if x > st.lo && x < st.hi then x else mid);
        eval ();
        if st.fk = 0.0 then continue_ := false
        else begin
          if not illinois then begin
            if st.flo *. st.fk < 0.0 then st.hi <- mid
            else begin
              st.lo <- mid;
              st.flo <- st.fk
            end
          end
          else if st.fk > 0.0 then begin
            st.lo <- st.k;
            st.flo <- st.fk;
            if !side = 1 then st.fhi <- st.fhi *. 0.5;
            side := 1
          end
          else begin
            st.hi <- st.k;
            st.fhi <- st.fk;
            if !side = -1 then st.flo <- st.flo *. 0.5;
            side := -1
          end;
          decr it
        end
      end
    done;
    st.k
  in
  (* Lower bound: every application enjoys all p processors. *)
  st.acc <- neg_infinity;
  for i = 0 to n - 1 do
    let si = Array.unsafe_get s i in
    let v = (si +. ((1. -. si) /. p)) *. Array.unsafe_get costs i in
    if v > st.acc then st.acc <- v
  done;
  let k_lo = st.acc in
  st.k <- k_lo;
  eval ();
  if st.fk <= 0. then k_lo
  else begin
    let f_klo = st.fk in
    match warm with
    | Some k0 when Float.is_finite k0 && k0 > k_lo ->
      (* A seed near the root brackets it tightly: grow by 1.25 above
         the seed or shrink by 1.25 below it, never past k_lo. *)
      st.k <- k0;
      eval ();
      let fseed = st.fk in
      if fseed = 0. then k0
      else if fseed > 0. then begin
        (* Root above the seed: grow an upper bracket geometrically. *)
        st.k <- k0 *. 1.25;
        eval ();
        let it = ref 128 in
        while st.fk > 0. && !it > 0 do
          st.k <- st.k *. 1.25;
          decr it;
          eval ()
        done;
        if st.fk > 0. then
          raise (Util.Solver.No_bracket "expand_bracket_up: no sign change");
        if st.fk = 0. then st.k else refine k0 st.k fseed st.fk
      end
      else begin
        (* Root below the seed: shrink a lower bracket, never past the
           floor, where f(k_lo) > 0 is already known. *)
        st.lo <- Float.max k_lo (k0 /. 1.25);
        st.flo <- f_klo;
        let it = ref 128 in
        let searching = ref true in
        while !searching do
          if st.lo <= k_lo then begin
            st.lo <- k_lo;
            st.flo <- f_klo;
            searching := false
          end
          else begin
            st.k <- st.lo;
            eval ();
            if st.fk >= 0. then begin
              st.flo <- st.fk;
              searching := false
            end
            else if !it = 0 then begin
              st.lo <- k_lo;
              st.flo <- f_klo;
              searching := false
            end
            else begin
              decr it;
              st.lo <- Float.max k_lo (st.lo /. 1.25)
            end
          end
        done;
        if st.flo = 0. then st.lo else refine st.lo k0 st.flo fseed
      end
    | _ ->
      (* Cold: one processor each suffices when n <= p; otherwise grow
         the bracket by doubling. *)
      st.acc <- neg_infinity;
      for i = 0 to n - 1 do
        let c = Array.unsafe_get costs i in
        if c > st.acc then st.acc <- c
      done;
      st.k <- (if st.acc > k_lo then st.acc else k_lo);
      eval ();
      let it = ref 128 in
      while st.fk > 0. && !it > 0 do
        st.k <- st.k *. 2.0;
        decr it;
        eval ()
      done;
      if st.fk > 0. then
        raise (Util.Solver.No_bracket "expand_bracket_up: no sign change");
      if st.fk = 0. then st.k else refine k_lo st.k f_klo st.fk
  end

let solve_cols ?tol ?warm ?iters ~platform ~s ~costs ~n () =
  root ~illinois:true ?tol ?warm ?iters ~platform ~s ~costs ~n ()

(* --- the paper entries: cold bisection, instrumented ------------------- *)

(* Probe handles are registered eagerly at module load so the enabled
   path never pays a registry lookup. *)
let m_solves =
  Obs.Metrics.counter ~help:"makespan bisections solved" "equalize.solves"

let m_evals =
  Obs.Metrics.histogram ~help:"objective evaluations per solve"
    "equalize.evals"

let m_bracket =
  Obs.Metrics.histogram ~help:"relative bracket width at bisection entry"
    "equalize.bracket_width"

(* Instrumentation wraps the solver per solve, never per evaluation:
   with probes off this is one flag test and a tail call into the
   allocation-free core; with probes on the extra work (an evaluation
   counter read, a few metric updates) happens once per solve, so the
   bit-identical result and the zero-words-per-eval property hold in
   both states (test/test_obs.ml checks both). *)
let solve_with_costs ?tol ?iters ~platform ~s ~costs ~n () =
  if not (Obs.Probe.on ()) then
    root ~illinois:false ?tol ?iters ~platform ~s ~costs ~n ()
  else begin
    let counted = match iters with Some r -> r | None -> ref 0 in
    let e0 = !counted in
    last_bracket.(0) <- Float.nan;
    let k =
      root ~illinois:false ?tol ~iters:counted ~platform ~s ~costs ~n ()
    in
    Obs.Metrics.incr m_solves;
    Obs.Metrics.observe m_evals (float_of_int (!counted - e0));
    let bw = last_bracket.(0) in
    if not (Float.is_nan bw) then Obs.Metrics.observe m_bracket bw;
    k
  end

(* The [s] and [c_i] columns of an instance at cache fractions [x]. *)
let columns ~platform ~apps x =
  let n = Array.length apps in
  if n = 0 then invalid_arg "Equalize: empty instance";
  if Array.length x <> n then
    invalid_arg "Equalize: apps and cache fractions must have the same length";
  let s = Array.make n 0. and costs = Array.make n 0. in
  for i = 0 to n - 1 do
    let app = apps.(i) in
    s.(i) <- app.Model.App.s;
    costs.(i) <- Model.Exec_model.work_cost ~app ~platform ~x:x.(i)
  done;
  (s, costs)

let solve_makespan ?tol ?iters ~platform ~apps x =
  let s, costs = columns ~platform ~apps x in
  solve_with_costs ?tol ?iters ~platform ~s ~costs ~n:(Array.length apps) ()

let procs_at ~platform ~apps ~x ~k =
  let costs = work_costs ~platform ~apps ~x in
  Array.map2
    (fun (app : Model.App.t) c ->
      let denom = (k /. c) -. app.s in
      if denom <= 0. then infinity else (1. -. app.s) /. denom)
    apps costs

let schedule_k ?tol ?iters ~platform ~apps x =
  let n = Array.length apps in
  let s, costs = columns ~platform ~apps x in
  let k = solve_with_costs ?tol ?iters ~platform ~s ~costs ~n () in
  let procs = Array.make n 0. in
  for i = 0 to n - 1 do
    let denom = (k /. costs.(i)) -. s.(i) in
    procs.(i) <- (if denom <= 0. then infinity else (1. -. s.(i)) /. denom)
  done;
  let total = Util.Floatx.sum_array ~n procs in
  let factor = platform.Model.Platform.p /. total in
  let allocs =
    Array.init n (fun i ->
        { Model.Schedule.procs = procs.(i) *. factor; cache = x.(i) })
  in
  (Model.Schedule.make ~platform ~apps ~allocs, k)

let schedule ?tol ~platform ~apps x = fst (schedule_k ?tol ~platform ~apps x)
