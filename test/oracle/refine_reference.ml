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
  let costs = Sched.Equalize.work_costs ~platform ~apps ~x in
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

(* Every iteration re-solves the current point (whose makespan the loop
   already knows) and re-derives every power-law constant from
   scratch. *)
let refine ?(max_iter = 200) ?(tol = 1e-10) ~platform ~apps ~x0 () =
  let n = Array.length apps in
  if n = 0 then invalid_arg "Refine.refine: empty instance";
  if Array.length x0 <> n then invalid_arg "Refine.refine: length mismatch";
  let thresholds =
    Array.map
      (fun app -> Model.Power_law.min_useful_fraction ~app ~platform)
      apps
  in
  let evaluate x = Sched.Equalize.solve_makespan ~platform ~apps x in
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
    Sched.Refine.x = !best_x;
    makespan = !best_k;
    iterations = !iterations;
    improvement = Float.max 0. (1. -. (!best_k /. k0));
  }
