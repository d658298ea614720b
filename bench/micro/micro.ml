(* Micro-benchmarks for the solver hot path.

   Wall-clock (ns/op) and minor-heap allocation (words/op, via
   [Gc.minor_words] — exact, not sampled) for the kernels the schedulers
   spend their time in: work-cost evaluation, the makespan root-finder
   (both entries: the paper's cold bisection with and without a reusable
   workspace, the online entry's Illinois refinement), the
   speedup-aware refinement against its kept pre-overhaul reference, and
   the cold eviction-loop partition.

   Writes BENCH_solver.json (override with --out) and validates the
   emitted JSON.  --smoke shrinks repetitions for CI (`dune build
   @perf`); the >= 2x refine-vs-reference throughput gate is enforced in
   full runs only, where timings are stable enough to gate on. *)

let smoke = ref false
let out = ref "BENCH_solver.json"

let () =
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " few repetitions; skip the throughput gate");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_solver.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "micro [--smoke] [--out FILE]"

(* --- measurement ------------------------------------------------------- *)

type sample = {
  name : string;
  reps : int;
  ns_per_op : float;
  minor_words_per_op : float;
}

let samples : sample list ref = ref []

(* The heat sink: every benchmark body folds something into it so the
   compiler cannot discard the work. *)
let sink = ref 0.

let measure ~name ?(warmup = 3) ~reps f =
  let reps = if !smoke then max 1 (reps / 20) else reps in
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let s =
    {
      name;
      reps;
      ns_per_op = (t1 -. t0) *. 1e9 /. float_of_int reps;
      minor_words_per_op = (w1 -. w0) /. float_of_int reps;
    }
  in
  samples := s :: !samples;
  Printf.printf "%-34s %12.0f ns/op %12.1f words/op  (%d reps)\n%!" s.name
    s.ns_per_op s.minor_words_per_op s.reps;
  s

(* --- fixture ----------------------------------------------------------- *)

let n_apps = 64
let seed = 2017
let platform = Model.Platform.paper_default

let apps =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.Random
    n_apps

(* Theorem 3 fractions on the dominant partition: the allocation every
   solver below actually bisects at. *)
let subset = Online.Incremental.cold_partition ~platform apps
let x_star = Theory.Dominant.cache_allocation_capped ~platform ~apps subset

(* Progress-drift snapshots for the partition benchmark: each snapshot
   rescales works app-by-app, differentially, so consecutive solves see
   a different ratio order. *)
let n_snapshots = 8

let snapshots =
  Array.init n_snapshots (fun j ->
      Array.mapi
        (fun i app ->
          let wiggle =
            1. +. (0.2 *. float_of_int ((i * (j + 3)) mod 7) /. 7.)
          in
          Model.App.with_w app (app.Model.App.w *. wiggle))
        apps)

(* --- 1. work-cost kernels ---------------------------------------------- *)

let n_points = 256

let xs =
  Array.init n_points (fun i -> (float_of_int i +. 1.) /. float_of_int n_points)

let bench_work_cost () =
  let cursor = ref 0 in
  let direct =
    measure ~name:"work_cost/exec_model" ~reps:20_000 (fun () ->
        let j = !cursor in
        cursor := (j + 1) mod n_points;
        let acc = ref 0. in
        for i = 0 to n_apps - 1 do
          let x = xs.((i + j) mod n_points) in
          acc := !acc +. Model.Exec_model.work_cost ~app:apps.(i) ~platform ~x
        done;
        sink := !sink +. !acc;
        !acc)
  in
  let kern = Model.Kernel.create ~platform apps in
  let cursor = ref 0 in
  let kernel =
    measure ~name:"work_cost/kernel" ~reps:20_000 (fun () ->
        let j = !cursor in
        cursor := (j + 1) mod n_points;
        let acc = ref 0. in
        for i = 0 to n_apps - 1 do
          let x = xs.((i + j) mod n_points) in
          (* cost then derivative at the same point — the refinement
             loop's access pattern; the second call hits the memo. *)
          acc :=
            !acc
            +. Model.Kernel.work_cost kern i x
            +. (1e-30 *. Model.Kernel.cost_derivative kern i x)
        done;
        sink := !sink +. !acc;
        !acc)
  in
  (direct, kernel)

(* --- 2. makespan bisection --------------------------------------------- *)

let bench_solve () =
  let ws = Sched.Workspace.create ~n:n_apps () in
  let cold_fresh =
    measure ~name:"solve_makespan/cold-fresh" ~reps:5_000 (fun () ->
        let k = Sched.Equalize.solve_makespan ~platform ~apps x_star in
        sink := !sink +. k;
        k)
  in
  let cold_ws =
    measure ~name:"solve_makespan/cold-ws" ~reps:5_000 (fun () ->
        let k = Sched.Equalize.solve_makespan ~ws ~platform ~apps x_star in
        sink := !sink +. k;
        k)
  in
  (cold_fresh, cold_ws)

(* Per-evaluation allocation of both root-finder entries: a looser
   tolerance runs materially fewer objective evaluations, so equal
   words/solve at both tolerances proves the per-evaluation allocation
   is zero (the small constant is the solve's own state record and
   closures).  The paper entry runs through a workspace, the online
   entry on preallocated columns as the service calls it. *)
type alloc_gate = {
  tight : sample;
  loose : sample;
  iters_tight : int;
  iters_loose : int;
}

let alloc_gate ~name solve =
  let iters_at tol =
    let iters = ref 0 in
    ignore (solve ~tol ~iters);
    !iters
  in
  let run tol =
    measure ~name:(Printf.sprintf "%stol-%g" name tol) ~reps:5_000 (fun () ->
        let k = solve ~tol ~iters:(ref 0) in
        sink := !sink +. k;
        k)
  in
  let tight = run 1e-13 in
  let loose = run 1e-6 in
  { tight; loose; iters_tight = iters_at 1e-13; iters_loose = iters_at 1e-6 }

let bench_zero_alloc () =
  let ws = Sched.Workspace.create ~n:n_apps () in
  let s = Array.map (fun app -> app.Model.App.s) apps in
  let costs = Sched.Equalize.work_costs ~platform ~apps ~x:x_star in
  ( alloc_gate ~name:"solve_makespan/ws-" (fun ~tol ~iters ->
        Sched.Equalize.solve_makespan ~tol ~iters ~ws ~platform ~apps x_star),
    alloc_gate ~name:"solve_cols/" (fun ~tol ~iters ->
        Sched.Equalize.solve_cols ~tol ~iters ~platform ~s ~costs ~n:n_apps ())
  )

(* --- 3. refinement vs the kept naive reference ------------------------- *)

let bench_refine () =
  let ws = Sched.Workspace.create ~n:n_apps () in
  let reference =
    measure ~name:"refine/reference" ~reps:60 (fun () ->
        let r = Sched.Refine.refine_reference ~platform ~apps ~x0:x_star () in
        sink := !sink +. r.Sched.Refine.makespan;
        r.Sched.Refine.makespan)
  in
  let optimized =
    measure ~name:"refine/optimized" ~reps:60 (fun () ->
        let r = Sched.Refine.refine ~ws ~platform ~apps ~x0:x_star () in
        sink := !sink +. r.Sched.Refine.makespan;
        r.Sched.Refine.makespan)
  in
  (reference, optimized)

(* --- 4. cold partition ------------------------------------------------- *)

let bench_partition () =
  let cursor = ref 0 in
  ignore
    (measure ~name:"cold_partition/eviction-loop" ~reps:2_000 (fun () ->
         let j = !cursor in
         cursor := (j + 1) mod n_snapshots;
         let s = Online.Incremental.cold_partition ~platform snapshots.(j) in
         sink := !sink +. (if s.(0) then 1. else 0.);
         s))

(* --- 5. columnar arrival path ------------------------------------------ *)

(* Admitting a job into the columnar state costs a constant number of
   minor words — the job handle — independent of the live-set size: the
   float columns are preallocated, the slot comes off the freelist and
   the dense iteration array appends in place.  Measured at two live
   sizes chosen to sit just under a capacity doubling (128 and 2048) so
   no growth lands inside the measured window; a per-arrival cost that
   scaled with the live set would show up as a gap between the two. *)
let arrival_words ~live =
  let rng = Util.Rng.create 4242 in
  let pool_apps = Model.Workload.generate ~rng Model.Workload.NpbSynth 256 in
  let st = Online.State.create platform in
  for i = 0 to live - 1 do
    ignore (Online.State.add st ~app:pool_apps.(i mod 256))
  done;
  let reps = 32 in
  (* Retire [reps] jobs first so the measured arrivals run the
     steady-state freelist-reuse path rather than minting fresh slots. *)
  let js = Online.State.live st in
  for i = 0 to reps - 1 do
    Online.State.cancel st js.(i)
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to reps - 1 do
    ignore (Online.State.add st ~app:pool_apps.((live + i) mod 256))
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int reps

let bench_arrival_alloc () = (arrival_words ~live:96, arrival_words ~live:1920)

(* --- 6. sharded re-solve smoke ------------------------------------------ *)

(* Two worker domains, one mid-size columnar instance crossing the
   solver's 2048-wide demand chunk: the sharded solve must reproduce the
   sequential makespan bit-for-bit (the exhaustive gate lives in the
   QCheck suite; this keeps a live pool inside `dune runtest`), and both
   paths are timed for the JSON. *)
let bench_sharded_solve () =
  let n = 3_000 in
  let big =
    Model.Workload.generate ~rng:(Util.Rng.create 97) Model.Workload.NpbSynth n
  in
  let solve pool =
    let st = Online.State.create platform in
    Array.iter (fun app -> ignore (Online.State.add st ~app)) big;
    let inc = Online.Incremental.create () in
    let k, _ =
      Online.Incremental.solve_state inc ?pool ~shard_min:1 ~elapsed:0.
        ~state:st ()
    in
    k
  in
  let seq =
    measure ~name:"solve_state/seq-3000" ~reps:20 (fun () ->
        let k = solve None in
        sink := !sink +. k;
        k)
  in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let shd =
        measure ~name:"solve_state/sharded-2dom-3000" ~reps:20 (fun () ->
            let k = solve (Some pool) in
            sink := !sink +. k;
            k)
      in
      (seq, shd, solve (Some pool) = solve None))

(* --- JSON -------------------------------------------------------------- *)

let json_of_sample s =
  Printf.sprintf
    "{\"name\":\"%s\",\"reps\":%d,\"ns_per_op\":%.6g,\"minor_words_per_op\":%.6g}"
    s.name s.reps s.ns_per_op s.minor_words_per_op

(* A well-formedness scan (balanced structure outside strings, legal
   escapes) — not a parser, but enough to catch a truncated or mangled
   emission before it lands in the repo. *)
let validate_json text =
  let depth = ref 0 and in_string = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !in_string then
        if !escaped then escaped := false
        else if ch = '\\' then escaped := true
        else if ch = '"' then in_string := false
        else ()
      else
        match ch with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then failwith "validate_json: unbalanced close"
        | _ -> ())
    text;
  if !in_string then failwith "validate_json: unterminated string";
  if !depth <> 0 then failwith "validate_json: unbalanced open";
  if String.length text = 0 || text.[0] <> '{' then
    failwith "validate_json: not an object"

let () =
  let direct, kernel = bench_work_cost () in
  let cold_fresh, cold_ws = bench_solve () in
  let paper, cols = bench_zero_alloc () in
  let reference, optimized = bench_refine () in
  bench_partition ();
  let arrival_small, arrival_big = bench_arrival_alloc () in
  let seq3k, shd3k, sharded_same = bench_sharded_solve () in
  let refine_speedup = reference.ns_per_op /. optimized.ns_per_op in
  let gap g = g.tight.minor_words_per_op -. g.loose.minor_words_per_op in
  (* Constant words per arrival at a 20x live-set gap ==> the columnar
     admission path never touches O(live) memory. *)
  let arrival_gap = arrival_big -. arrival_small in
  let arrival_const = Float.abs arrival_gap < 1. in
  (* Equal allocation at ~2x different evaluation counts ==> zero words
     per evaluation.  Sub-word slack absorbs the measurement scaffolding
     (the [Gc.minor ()] call's own boxes amortised over the reps). *)
  let zero_alloc g = g.iters_tight > g.iters_loose && Float.abs (gap g) < 1. in
  let derived =
    [
      ("work_cost_speedup_vs_exec_model", direct.ns_per_op /. kernel.ns_per_op);
      ("solve_cold_ws_speedup_vs_fresh", cold_fresh.ns_per_op /. cold_ws.ns_per_op);
      ("refine_speedup_vs_reference", refine_speedup);
      ("solver_iters_tol13", float_of_int paper.iters_tight);
      ("solver_iters_tol6", float_of_int paper.iters_loose);
      ("solver_alloc_words_gap", gap paper);
      ("solve_cols_iters_tol13", float_of_int cols.iters_tight);
      ("solve_cols_iters_tol6", float_of_int cols.iters_loose);
      ("solve_cols_alloc_words_gap", gap cols);
      ("arrival_words_live96", arrival_small);
      ("arrival_words_live1920", arrival_big);
      ("arrival_words_gap", arrival_gap);
      ("sharded_solve_speedup_2dom", seq3k.ns_per_op /. shd3k.ns_per_op);
    ]
  in
  let json =
    String.concat ""
      [
        "{";
        Printf.sprintf "\"mode\":\"%s\"," (if !smoke then "smoke" else "full");
        Printf.sprintf "\"apps\":%d," n_apps;
        Printf.sprintf "\"seed\":%d," seed;
        "\"benchmarks\":[";
        String.concat "," (List.rev_map json_of_sample !samples);
        "],\"derived\":{";
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%.6g" k v) derived);
        Printf.sprintf "},\"zero_alloc_per_bisection_eval\":%b,"
          (zero_alloc paper);
        Printf.sprintf "\"zero_alloc_per_solve_cols_eval\":%b," (zero_alloc cols);
        Printf.sprintf "\"arrival_alloc_constant\":%b," arrival_const;
        Printf.sprintf "\"sharded_solve_bit_identical\":%b" sharded_same;
        "}";
      ]
  in
  validate_json json;
  let oc = open_out !out in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc json);
  Printf.printf "wrote %s (valid JSON; sink=%h)\n" !out !sink;
  List.iter
    (fun (entry, g) ->
      if not (zero_alloc g) then begin
        Printf.eprintf
          "FAIL: %s allocates per evaluation (%.2f words gap, %d vs %d \
           evals)\n"
          entry (gap g) g.iters_tight g.iters_loose;
        exit 1
      end)
    [ ("solve_makespan", paper); ("solve_cols", cols) ];
  if not arrival_const then begin
    Printf.eprintf
      "FAIL: columnar arrival cost scales with the live set (%.2f vs %.2f \
       words/arrival at live 96 vs 1920)\n"
      arrival_small arrival_big;
    exit 1
  end;
  if not sharded_same then begin
    Printf.eprintf "FAIL: 2-domain sharded solve differs from sequential\n";
    exit 1
  end;
  if (not !smoke) && refine_speedup < 2. then begin
    Printf.eprintf "FAIL: refine speedup %.2fx < 2x over the naive reference\n"
      refine_speedup;
    exit 1
  end;
  Printf.printf "refine speedup vs reference: %.2fx%s\n" refine_speedup
    (if !smoke then " (gate skipped in smoke mode)" else " (>= 2x gate passed)")
