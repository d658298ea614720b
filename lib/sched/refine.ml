type result = {
  x : float array;
  makespan : float;
  iterations : int;
  improvement : float;
}

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

(* The multiplicative-weights loop of the pre-overhaul reference (kept
   in the test suite's oracle library) with the hot path overhauled:
   work costs and derivatives evaluate through a precomputed
   {!Model.Kernel} (one memoized power per application per point
   instead of several fresh [( ** )]), the makespan of the current
   iterate is carried from the previous iteration instead of re-solved
   (the reference solved every point twice: once as a proposal, once as
   the loop head), and the proposal/gradient/cost intermediates are
   allocated once per call.  The trajectory is the reference's up to
   rounding — the kernel factorisation changes a few ulps per cost — so
   results agree to the fixed point's own tolerance, not bit-for-bit. *)
let refine ?(max_iter = 200) ?(tol = 1e-10) ?iters ~platform ~apps ~x0 () =
  let n = Array.length apps in
  if n = 0 then invalid_arg "Refine.refine: empty instance";
  if Array.length x0 <> n then invalid_arg "Refine.refine: length mismatch";
  let kern = Model.Kernel.create ~platform apps in
  let seq = Array.make n 0. in
  for i = 0 to n - 1 do
    seq.(i) <- Model.Kernel.seq_fraction kern i
  done;
  let costs = Array.make n 0. in
  let grads = Array.make n 0. in
  let proposal = Array.make n 0. in
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

let schedule ?max_iter ?tol ~platform ~apps ~x0 () =
  let { x; _ } = refine ?max_iter ?tol ~platform ~apps ~x0 () in
  Equalize.schedule ~platform ~apps x
