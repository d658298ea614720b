let argbest better ~platform ~apps candidates =
  let score i = Theory.Dominant.ratio ~platform apps.(i) in
  match candidates with
  | [] -> invalid_arg "Partition_reference.pick: empty candidate list"
  | first :: rest ->
    let choose (best_i, best_r) i =
      let r = score i in
      if better r best_r then (i, r) else (best_i, best_r)
    in
    fst (List.fold_left choose (first, score first) rest)

let pick criterion ~rng ~platform ~apps candidates =
  match criterion with
  | Sched.Choice.Random -> Util.Rng.pick rng candidates
  | Sched.Choice.MinRatio -> argbest ( < ) ~platform ~apps candidates
  | Sched.Choice.MaxRatio -> argbest ( > ) ~platform ~apps candidates

(* Algorithm 1: evict from the full set until dominant, ticking [ops]
   for the weight sum, the dominance check and the eviction scan. *)
let build_dominant ?ops choice ~rng ~platform ~apps =
  let n = Array.length apps in
  let subset = Array.make n true in
  let tick m = match ops with Some f -> f m | None -> () in
  let rec loop () =
    let members = Theory.Dominant.indices subset in
    let m = List.length members in
    if m > 0 then begin
      tick m;
      tick m;
      if not (Theory.Dominant.is_dominant ~platform ~apps subset) then begin
        let k = pick choice ~rng ~platform ~apps members in
        tick m;
        subset.(k) <- false;
        loop ()
      end
    end
  in
  loop ();
  subset

(* Algorithm 2: grow from the empty set while dominance holds. *)
let build_dominant_rev choice ~rng ~platform ~apps =
  let n = Array.length apps in
  let accepted = Array.make n false in
  let trial = Array.make n false in
  let rec loop = function
    | [] -> ()
    | candidates ->
      let k = pick choice ~rng ~platform ~apps candidates in
      trial.(k) <- true;
      if Theory.Dominant.is_dominant ~platform ~apps trial then begin
        accepted.(k) <- true;
        loop (List.filter (fun i -> i <> k) candidates)
      end
  in
  loop (List.init n Fun.id);
  accepted

let build ?ops strategy choice ~rng ~platform ~apps =
  match strategy with
  | Sched.Partition_builder.Dominant ->
    build_dominant ?ops choice ~rng ~platform ~apps
  | Sched.Partition_builder.DominantRev ->
    build_dominant_rev choice ~rng ~platform ~apps
