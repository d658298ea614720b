module Inc = Online.Incremental

(* MinRatio consumes no randomness; the builder's [rng] parameter is
   satisfied by a shared dummy stream that is never advanced. *)
let dummy_rng = lazy (Util.Rng.create 0)

let partition ?counters ~platform apps =
  let ops =
    match counters with
    | Some c -> Some (fun m -> c.Inc.partition_ops <- c.Inc.partition_ops + m)
    | None -> None
  in
  Sched.Partition_builder.build ?ops Sched.Partition_builder.Dominant
    Sched.Choice.MinRatio ~rng:(Lazy.force dummy_rng) ~platform ~apps

let solve (c : Inc.counters) ~platform ~apps =
  if Array.length apps = 0 then invalid_arg "Cold.solve: empty instance";
  c.resolves <- c.resolves + 1;
  let subset = partition ~counters:c ~platform apps in
  let x = Theory.Dominant.cache_allocation_capped ~platform ~apps subset in
  let iters = ref 0 in
  let schedule, k = Sched.Equalize.schedule_k ~iters ~platform ~apps x in
  c.solver_iters <- c.solver_iters + !iters;
  (schedule, k)
