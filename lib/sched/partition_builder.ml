type strategy = Dominant | DominantRev

let strategy_name = function
  | Dominant -> "Dominant"
  | DominantRev -> "DominantRev"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "dominant" -> Dominant
  | "dominantrev" | "dominant-rev" -> DominantRev
  | other -> invalid_arg ("Partition_builder: unknown strategy " ^ other)

(* Dominant.weight and Dominant.ratio of every application, computed once
   per build: both are deterministic functions of the application and the
   platform, so reading them from these columns gives the values the
   per-step calls would, bit for bit. *)
type columns = { weight : float array; ratio : float array }

let columns ~platform ~apps =
  {
    weight = Array.map (Theory.Dominant.weight ~platform) apps;
    ratio = Array.map (Theory.Dominant.ratio ~platform) apps;
  }

(* Dominant.is_dominant on the columns.  [total] is the left fold over the
   members in index order, Dominant.weight_sum's association, and a member
   violates iff [ratio <= total], Dominant.violators' test (a NaN ratio
   never violates). *)
let dominant cols subset =
  let n = Array.length subset in
  let total = ref 0. in
  for i = 0 to n - 1 do
    if subset.(i) then total := !total +. cols.weight.(i)
  done;
  let total = !total in
  let i = ref 0 in
  while !i < n && not (subset.(!i) && cols.ratio.(!i) <= total) do
    incr i
  done;
  !i = n

(* The choice function over the candidate mask [cand], which holds
   [m > 0] candidates, read in index order: [Random] takes the
   [Util.Rng.int rng m]-th candidate, the draw Util.Rng.pick makes on the
   index-ordered candidate list, without building the list;
   [MinRatio]/[MaxRatio] keep the first candidate unless a later one is
   strictly better, so ties go to the lowest index. *)
let pick choice ~rng cols cand ~m =
  match choice with
  | Choice.Random ->
    let target = Util.Rng.int rng m in
    let i = ref (-1) and seen = ref (-1) in
    while !seen < target do
      incr i;
      if cand.(!i) then incr seen
    done;
    !i
  | Choice.MinRatio | Choice.MaxRatio ->
    let want_max = choice = Choice.MaxRatio in
    let n = Array.length cand in
    let best = ref (-1) in
    let best_r = ref 0. in
    for i = 0 to n - 1 do
      if cand.(i) then begin
        let r = cols.ratio.(i) in
        if !best < 0 || (if want_max then r > !best_r else r < !best_r) then begin
          best := i;
          best_r := r
        end
      end
    done;
    !best

(* Algorithm 1: evict from the full set until dominant.

   [ops], when given, receives the per-iteration scan counts — [m] for
   the weight-sum pass, [m] for the dominance check, [m] for the
   eviction scan over the [m] current members — so callers that compare
   algorithmic work against warm-started alternatives (the online
   incremental solver) account for exactly the loop this function runs
   rather than a hand-maintained replica that could drift. *)
let build_dominant ?ops choice ~rng cols n =
  let subset = Array.make n true in
  let tick m = match ops with Some f -> f m | None -> () in
  let rec loop m =
    if m > 0 then begin
      tick m;
      (* weight sum *)
      tick m;
      (* dominance check *)
      if not (dominant cols subset) then begin
        let k = pick choice ~rng cols subset ~m in
        tick m;
        (* eviction scan *)
        subset.(k) <- false;
        loop (m - 1)
      end
    end
  in
  loop n;
  subset

(* Algorithm 2: grow from the empty set while dominance holds; the first
   rejection stops the accretion. *)
let build_dominant_rev choice ~rng cols n =
  let trial = Array.make n false in
  let rest = Array.make n true in
  let rec loop left =
    if left > 0 then begin
      let k = pick choice ~rng cols rest ~m:left in
      rest.(k) <- false;
      trial.(k) <- true;
      if dominant cols trial then loop (left - 1) else trial.(k) <- false
    end
  in
  loop n;
  trial

let build ?ops strategy choice ~rng ~platform ~apps =
  let cols = columns ~platform ~apps in
  let n = Array.length apps in
  match strategy with
  | Dominant -> build_dominant ?ops choice ~rng cols n
  | DominantRev -> build_dominant_rev choice ~rng cols n
