type result = {
  x : float array;
  makespan : float;
  iterations : int;
  improvement : float;
}

(* dc_i/dx_i in the unsaturated power-law regime; 0 when the cache
   fraction is below the Eq. (3) threshold (rate pinned at 1) or zero. *)
let cost_derivative ~(platform : Model.Platform.t) (app : Model.App.t) x =
  let d = Model.Power_law.d_of ~app ~platform in
  let alpha = platform.alpha in
  if x <= 0. then 0.
  else if d /. (x ** alpha) >= 1. then 0.
  else -.(alpha *. app.w *. app.f *. platform.ll *. d *. (x ** (-.alpha -. 1.)))

let gradient ~platform ~apps ~x ~k =
  let n = Array.length apps in
  let costs = Equalize.work_costs ~platform ~apps ~x in
  (* dK/dx_i = - (dg/dx_i) / (dg/dK) for g(K,x) = sum p_j(K, c_j) - p. *)
  let dg_dk = ref 0. in
  for j = 0 to n - 1 do
    let app = apps.(j) in
    let denom = (k /. costs.(j)) -. app.Model.App.s in
    dg_dk := !dg_dk -. ((1. -. app.Model.App.s) /. (denom *. denom) /. costs.(j))
  done;
  Array.mapi
    (fun i (app : Model.App.t) ->
      if x.(i) <= 0. then 0.
      else
        let c = costs.(i) in
        let c' = cost_derivative ~platform app x.(i) in
        let denom = (k /. c) -. app.s in
        let dg_dxi = (1. -. app.s) *. k *. c' /. (c *. c *. denom *. denom) in
        -.(dg_dxi /. !dg_dk))
    apps

(* --- optimized fixed point --------------------------------------------- *)

let m_refines =
  Obs.Metrics.counter ~help:"gradient refinements run" "refine.calls"

let m_refine_iters =
  Obs.Metrics.histogram ~help:"fixed-point iterations per refinement"
    "refine.iters"

let m_improve =
  Obs.Metrics.histogram
    ~help:"relative makespan improvement over the starting point"
    "refine.improvement"

let m_step =
  Obs.Metrics.histogram
    ~help:"relative makespan decrease per accepted fixed-point step"
    "refine.step_gain"

(* The multiplicative-weights loop of {!refine_reference} with the hot
   path overhauled: work costs and derivatives evaluate through a
   precomputed {!Model.Kernel} (one memoized power per application per
   point instead of several fresh [( ** )]), the makespan of the current
   iterate is carried from the previous iteration instead of re-solved
   (the reference solved every point twice: once as a proposal, once as
   the loop head), and the proposal/gradient/cost intermediates live in
   a {!Workspace}.  The trajectory is the reference's up to rounding —
   the kernel factorisation changes a few ulps per cost — so results
   agree to the fixed point's own tolerance, not bit-for-bit. *)
let refine ?(max_iter = 200) ?(tol = 1e-10) ?iters ?ws ~platform ~apps ~x0 () =
  let n = Array.length apps in
  if n = 0 then invalid_arg "Refine.refine: empty instance";
  if Array.length x0 <> n then invalid_arg "Refine.refine: length mismatch";
  let ws = match ws with Some w -> w | None -> Workspace.create ~n () in
  let kern = Model.Kernel.create ~platform apps in
  let seq = Workspace.seq ws n in
  for i = 0 to n - 1 do
    seq.(i) <- Model.Kernel.seq_fraction kern i
  done;
  let costs = Workspace.costs ws n in
  let grads = Workspace.gradient ws n in
  let proposal = Workspace.proposal ws n in
  let fill_costs x =
    for i = 0 to n - 1 do
      costs.(i) <- Model.Kernel.work_cost kern i x.(i)
    done
  in
  let evaluate x =
    fill_costs x;
    Equalize.solve_with_costs ?iters ~platform ~s:seq ~costs ~n ()
  in
  let grad_into ~x ~k =
    (* [costs] holds the work costs at [x]. *)
    let dg_dk = ref 0. in
    for j = 0 to n - 1 do
      let s = seq.(j) in
      let denom = (k /. costs.(j)) -. s in
      dg_dk := !dg_dk -. ((1. -. s) /. (denom *. denom) /. costs.(j))
    done;
    for i = 0 to n - 1 do
      if x.(i) <= 0. then grads.(i) <- 0.
      else begin
        let s = seq.(i) in
        let c = costs.(i) in
        let c' = Model.Kernel.cost_derivative kern i x.(i) in
        let denom = (k /. c) -. s in
        let dg_dxi = (1. -. s) *. k *. c' /. (c *. c *. denom *. denom) in
        grads.(i) <- -.(dg_dxi /. !dg_dk)
      end
    done
  in
  (* [Span.start] is a null handle when probes are off; an exception
     below leaves the span open for [Obs.Span.stop_all] to close. *)
  let sp = Obs.Span.start "sched.refine" in
  let k0 = evaluate x0 in
  let x = Array.copy x0 in
  let best_x = Array.copy x0 in
  let best_k = ref k0 in
  let k_cur = ref k0 in
  (* [costs] corresponds to the current [x] except right after an
     overshoot reset, when it still holds the rejected proposal's. *)
  let costs_valid = ref true in
  let gamma = ref 0.5 in
  let iterations = ref 0 in
  (try
     for _ = 1 to max_iter do
       incr iterations;
       let k = !k_cur in
       if not !costs_valid then fill_costs x;
       costs_valid := true;
       grad_into ~x ~k;
       (* Multiplicative-weights step towards equal gradients; a dead
          gradient (saturated or unsupported app) zeroes the fraction so
          the mass goes where it helps. *)
       let total = ref 0. in
       for i = 0 to n - 1 do
         let xi = x.(i) in
         let g = -.grads.(i) in
         let v = if xi <= 0. || g <= 0. then 0. else xi *. (g ** !gamma) in
         proposal.(i) <- v;
         total := !total +. v
       done;
       if !total <= 0. then raise Exit;
       (* Normalise, enforce the Eq. (3) support rule — a fraction at or
          below the useful threshold is wasted — and renormalise once. *)
       let total2 = ref 0. in
       for i = 0 to n - 1 do
         let v = proposal.(i) /. !total in
         let v = if v > 0. && v <= Model.Kernel.min_useful kern i then 0. else v in
         proposal.(i) <- v;
         total2 := !total2 +. v
       done;
       if !total2 <= 0. then raise Exit;
       for i = 0 to n - 1 do
         proposal.(i) <- proposal.(i) /. !total2
       done;
       let k' = evaluate proposal in
       if k' < !best_k then begin
         best_k := k';
         Array.blit proposal 0 best_x 0 n
       end;
       if k' <= k then begin
         if Obs.Probe.on () && k > 0. then
           Obs.Metrics.observe m_step ((k -. k') /. k);
         Array.blit proposal 0 x 0 n;
         k_cur := k';
         if (k -. k') /. k < tol then raise Exit
       end
       else begin
         (* Overshot: shrink the step and retry from the best point. *)
         gamma := !gamma /. 2.;
         Array.blit best_x 0 x 0 n;
         k_cur := !best_k;
         costs_valid := false;
         if !gamma < 1e-4 then raise Exit
       end
     done
   with Exit -> ());
  let improvement = Float.max 0. (1. -. (!best_k /. k0)) in
  if Obs.Probe.on () then begin
    Obs.Metrics.incr m_refines;
    Obs.Metrics.observe m_refine_iters (float_of_int !iterations);
    Obs.Metrics.observe m_improve improvement;
    Obs.Span.add_attr sp "iterations" (string_of_int !iterations);
    Obs.Span.add_attr sp "k0" (Printf.sprintf "%.6g" k0);
    Obs.Span.add_attr sp "makespan" (Printf.sprintf "%.6g" !best_k);
    Obs.Span.stop sp
  end;
  { x = best_x; makespan = !best_k; iterations = !iterations; improvement }

(* --- naive reference ---------------------------------------------------- *)

(* The pre-overhaul implementation, kept verbatim as the measured
   baseline: every iteration re-solves the current point (whose makespan
   the loop already knows) and re-derives every power-law constant from
   scratch.  The solver section of bench/main reports the
   optimized/reference throughput ratio from the same run. *)
let refine_reference ?(max_iter = 200) ?(tol = 1e-10) ~platform ~apps ~x0 () =
  let n = Array.length apps in
  if n = 0 then invalid_arg "Refine.refine: empty instance";
  if Array.length x0 <> n then invalid_arg "Refine.refine: length mismatch";
  let thresholds =
    Array.map
      (fun app -> Model.Power_law.min_useful_fraction ~app ~platform)
      apps
  in
  let evaluate x = Equalize.solve_makespan ~platform ~apps x in
  let k0 = evaluate x0 in
  let best_x = ref (Array.copy x0) in
  let best_k = ref k0 in
  let x = ref (Array.copy x0) in
  let gamma = ref 0.5 in
  let iterations = ref 0 in
  (try
     for _ = 1 to max_iter do
       incr iterations;
       let k = evaluate !x in
       let grads = gradient ~platform ~apps ~x:!x ~k in
       let proposal =
         Array.mapi
           (fun i xi ->
             let g = -.grads.(i) in
             if xi <= 0. || g <= 0. then 0. else xi *. (g ** !gamma))
           !x
       in
       let total = Array.fold_left ( +. ) 0. proposal in
       if total <= 0. then raise Exit;
       let proposal = Array.map (fun v -> v /. total) proposal in
       Array.iteri
         (fun i v -> if v > 0. && v <= thresholds.(i) then proposal.(i) <- 0.)
         proposal;
       let total = Array.fold_left ( +. ) 0. proposal in
       if total <= 0. then raise Exit;
       let proposal = Array.map (fun v -> v /. total) proposal in
       let k' = evaluate proposal in
       if k' < !best_k then begin
         best_k := k';
         best_x := Array.copy proposal
       end;
       if k' <= k then begin
         if (k -. k') /. k < tol then begin
           x := proposal;
           raise Exit
         end;
         x := proposal
       end
       else begin
         gamma := !gamma /. 2.;
         x := Array.copy !best_x;
         if !gamma < 1e-4 then raise Exit
       end
     done
   with Exit -> ());
  {
    x = !best_x;
    makespan = !best_k;
    iterations = !iterations;
    improvement = Float.max 0. (1. -. (!best_k /. k0));
  }

let schedule ?max_iter ?tol ~platform ~apps ~x0 () =
  let { x; _ } = refine ?max_iter ?tol ~platform ~apps ~x0 () in
  Equalize.schedule ~platform ~apps x
