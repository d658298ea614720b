type subset = bool array

let weight ~platform (app : Model.App.t) =
  let d = Model.Power_law.d_of ~app ~platform in
  let alpha = platform.Model.Platform.alpha in
  (app.w *. app.f *. d) ** (1. /. (alpha +. 1.))

let ratio ~platform (app : Model.App.t) =
  let d = Model.Power_law.d_of ~app ~platform in
  let w = weight ~platform app in
  if d = 0. then if w > 0. then infinity else 0.
  else w /. (d ** (1. /. platform.Model.Platform.alpha))

let check_lengths apps subset =
  if Array.length apps <> Array.length subset then
    invalid_arg "Dominant: apps and subset must have the same length"

let weight_sum ~platform ~apps subset =
  check_lengths apps subset;
  let acc = ref 0. in
  Array.iteri (fun i app -> if subset.(i) then acc := !acc +. weight ~platform app) apps;
  !acc

let violators ~platform ~apps subset =
  check_lengths apps subset;
  let total = weight_sum ~platform ~apps subset in
  let out = ref [] in
  Array.iteri
    (fun i app ->
      if subset.(i) && ratio ~platform app <= total then out := i :: !out)
    apps;
  List.rev !out

let is_dominant ~platform ~apps subset = violators ~platform ~apps subset = []

let cache_allocation ~platform ~apps subset =
  check_lengths apps subset;
  let total = weight_sum ~platform ~apps subset in
  Array.mapi
    (fun i app ->
      if subset.(i) && total > 0. then weight ~platform app /. total else 0.)
    apps

let cache_allocation_capped ~platform ~apps subset =
  check_lengths apps subset;
  let n = Array.length apps in
  let caps =
    Array.map (fun app -> Model.Power_law.max_useful_fraction ~app ~platform) apps
  in
  let x = Array.make n 0. in
  let active = Array.copy subset in
  let budget = ref 1. in
  let continue_ = ref true in
  while !continue_ do
    let total = ref 0. in
    Array.iteri
      (fun i app -> if active.(i) then total := !total +. weight ~platform app)
      apps;
    if !total <= 0. || !budget <= 0. then begin
      Array.iteri (fun i a -> if a then x.(i) <- 0.) active;
      continue_ := false
    end
    else begin
      (* Compute every active share against this round's fixed budget and
         total, then clamp all violators at once; mixing the two within a
         pass would use inconsistent multipliers. *)
      let shares = Array.make n 0. in
      Array.iteri
        (fun i app ->
          if active.(i) then
            shares.(i) <- !budget *. weight ~platform app /. !total)
        apps;
      let clamped = ref false in
      Array.iteri
        (fun i _ ->
          if active.(i) && shares.(i) >= caps.(i) then begin
            x.(i) <- caps.(i);
            budget := !budget -. caps.(i);
            active.(i) <- false;
            clamped := true
          end)
        apps;
      if not !clamped then begin
        Array.iteri (fun i _ -> if active.(i) then x.(i) <- shares.(i)) apps;
        continue_ := false
      end
    end
  done;
  x

let partition_makespan ~platform ~apps subset =
  let x = cache_allocation ~platform ~apps subset in
  Perfect.makespan ~platform ~apps ~x

let cardinal subset = Array.fold_left (fun n b -> if b then n + 1 else n) 0 subset

let improve ~platform ~apps subset =
  match violators ~platform ~apps subset with
  | [] -> None
  | i0 :: _ ->
    if cardinal subset <= 1 then None
    else begin
      let subset' = Array.copy subset in
      subset'.(i0) <- false;
      Some subset'
    end

let rec improve_to_dominant ~platform ~apps subset =
  match improve ~platform ~apps subset with
  | None -> subset
  | Some subset' -> improve_to_dominant ~platform ~apps subset'

let indices subset =
  let out = ref [] in
  Array.iteri (fun i b -> if b then out := i :: !out) subset;
  List.rev !out

let of_indices ~n members =
  let subset = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Dominant.of_indices: index out of range";
      subset.(i) <- true)
    members;
  subset
