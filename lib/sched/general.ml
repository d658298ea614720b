type app = {
  base : Model.App.t;
  profile : Model.Speedup.t;
}

let of_apps apps =
  Array.map (fun base -> { base; profile = Model.Speedup.of_app base }) apps

type result = {
  procs : float array;
  x : float array;
  times : float array;
  makespan : float;
  idle : float;
}

let solve ~platform ~apps ~x =
  let n = Array.length apps in
  if n = 0 then invalid_arg "General.solve: empty instance";
  if Array.length x <> n then invalid_arg "General.solve: length mismatch";
  let p = platform.Model.Platform.p in
  let costs =
    Array.mapi
      (fun i app -> Model.Exec_model.work_cost ~app:app.base ~platform ~x:x.(i))
      apps
  in
  (* The smallest conceivable K: every application at its profile's best
     processor count. *)
  let k_floor = ref neg_infinity in
  for i = 0 to n - 1 do
    k_floor :=
      Float.max !k_floor
        (costs.(i) *. Model.Speedup.min_factor apps.(i).profile ~cap:p)
  done;
  let k_floor = !k_floor in
  let demand k =
    (* Total processors needed to finish everything by K; applications
       whose floor exceeds K make it infinite (K infeasible). *)
    let acc = ref 0. in
    for i = 0 to n - 1 do
      match
        Model.Speedup.procs_for_factor apps.(i).profile ~cap:p
          ~target:(k /. costs.(i))
      with
      | Some pi -> acc := !acc +. pi
      | None -> acc := infinity
    done;
    !acc
  in
  let excess k = demand k -. p in
  let k =
    if excess k_floor <= 0. then k_floor
    else begin
      (* demand is nonincreasing in K; grow an upper bound and bisect. *)
      let c_max = Array.fold_left Float.max neg_infinity costs in
      let hi =
        Util.Solver.expand_bracket_up ~f:excess (Float.max k_floor c_max)
      in
      Util.Solver.bisect ~tol:1e-13 ~f:excess k_floor hi
    end
  in
  let procs =
    Array.mapi
      (fun i { profile; _ } ->
        match
          Model.Speedup.procs_for_factor profile ~cap:p ~target:(k /. costs.(i))
        with
        | Some pi -> pi
        | None ->
          (* Numerically K may sit a hair under a floor; pin to best. *)
          Model.Speedup.best_procs profile ~cap:p)
      apps
  in
  (* If capacity remains, scaling monotone-profile apps up would only
     unbalance finish times; leave the surplus idle (meaningful only for
     Comm floors anyway). *)
  let used = Util.Floatx.sum_array procs in
  let times =
    Array.init n (fun i ->
        Model.Speedup.time apps.(i).profile ~w:1. ~cost:costs.(i) ~p:procs.(i))
  in
  let makespan = Array.fold_left Float.max neg_infinity times in
  { procs; x; times; makespan; idle = Float.max 0. (p -. used) }

let solve_with_dominant ~rng ~platform ~apps =
  let bases = Array.map (fun a -> a.base) apps in
  let subset =
    Partition_builder.build Partition_builder.Dominant Choice.MinRatio ~rng
      ~platform ~apps:bases
  in
  let x = Theory.Dominant.cache_allocation_capped ~platform ~apps:bases subset in
  solve ~platform ~apps ~x
