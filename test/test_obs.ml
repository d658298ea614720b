(* Properties guarding the observability layer's two core promises:

   - {e zero cost when disabled}: with probes off, every instrumented
     hot path allocates exactly what the uninstrumented code did — the
     probe sites themselves allocate zero minor words, the Equalize
     bisection still allocates zero words per objective evaluation (the
     two-tolerance technique of bench/main's solver section), and the
     online event loop's allocation count is reproducible to the word;
   - {e non-interference when enabled}: solver results are bit-identical
     with probes on and off, for both the bare bisection and a full
     online service run.

   Plus structural properties of the collector and exporters: span
   nesting stays well-formed under arbitrary start/stop interleavings
   (including stopping a span that is not the innermost), the Chrome
   trace export round-trips through the bundled strict JSON parser and
   validity check, and the Prometheus exposition passes its
   line-checker. *)

let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t
let platform = Model.Platform.paper_default

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

let alloc apps =
  let subset = Oracle.Cold.partition ~platform apps in
  Theory.Dominant.cache_allocation_capped ~platform ~apps subset

let seed_and_n = QCheck.(pair (int_bound 10_000) (int_range 1 40))

(* Minor words allocated by [f ()].  Both the baseline and the measured
   call pay the same constant overhead (the boxed float returned by the
   first [Gc.minor_words]), so exact equality comparisons between two
   [words_of] results are meaningful. *)
let words_of f =
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* --- zero cost when disabled ------------------------------------------- *)

let disabled_probe_sites_zero_alloc () =
  Obs.Probe.with_disabled (fun () ->
      (* Warm up once so any lazy runtime initialisation is done. *)
      let sp = Obs.Span.start "warm" in
      Obs.Span.add_attr sp "k" "v";
      Obs.Span.stop sp;
      let baseline = words_of (fun () -> ()) in
      let probes =
        words_of (fun () ->
            for _ = 1 to 50_000 do
              let sp = Obs.Span.start "hot" in
              Obs.Span.add_attr sp "k" "v";
              Obs.Span.stop sp
            done)
      in
      Alcotest.(check (float 0.))
        "50k disabled span sites allocate zero words" baseline probes)

(* Words per [reps] solves at tolerance [tol].  The evaluation count
   grows as the tolerance tightens, while each solve's two fresh columns
   cost the same at any tolerance, so words(tol=1e-13) = words(tol=1e-6)
   proves the inner evaluation loop allocates nothing — instrumentation
   included, since it runs per solve, not per evaluation. *)
let words_per_solves ~tol ~apps x =
  ignore (Sched.Equalize.solve_makespan ~tol ~platform ~apps x);
  words_of (fun () ->
      for _ = 1 to 50 do
        ignore (Sched.Equalize.solve_makespan ~tol ~platform ~apps x)
      done)

let qcheck_equalize_zero_words_per_eval =
  QCheck.Test.make ~count:15
    ~name:"equalize allocates zero words per eval, probes off and on"
    seed_and_n
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = alloc apps in
      let off_tight, off_loose =
        Obs.Probe.with_disabled (fun () ->
            ( words_per_solves ~tol:1e-13 ~apps x,
              words_per_solves ~tol:1e-6 ~apps x ))
      in
      let on_tight, on_loose =
        Obs.Probe.with_enabled (fun () ->
            ( words_per_solves ~tol:1e-13 ~apps x,
              words_per_solves ~tol:1e-6 ~apps x ))
      in
      off_tight = off_loose && on_tight = on_loose)

(* --- bit-identical results, probes on vs off --------------------------- *)

let qcheck_equalize_bit_identical =
  QCheck.Test.make ~count:60
    ~name:"solve_makespan probes on == probes off, bitwise" seed_and_n
    (fun (seed, n) ->
      let apps = synth ~seed n in
      let x = alloc apps in
      let k_off =
        Obs.Probe.with_disabled (fun () ->
            Sched.Equalize.solve_makespan ~platform ~apps x)
      in
      let k_on =
        Obs.Probe.with_enabled (fun () ->
            Sched.Equalize.solve_makespan ~platform ~apps x)
      in
      k_off = k_on)

let service_report seed =
  let rng = Util.Rng.create seed in
  let stream =
    Online.Workload_stream.poisson_load ~rng ~platform ~load:3.
      ~dataset:Model.Workload.NpbSynth 8
  in
  Online.Service.run ~platform stream

let qcheck_service_bit_identical_and_reproducible =
  QCheck.Test.make ~count:8
    ~name:"online service: probes-off words reproducible; on == off"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let run () = service_report seed in
      (* The simulated service is deterministic, so two probes-off runs
         must allocate the same number of minor words to the word: the
         disabled instrumentation contributes nothing variable. *)
      let r_off = Obs.Probe.with_disabled run in
      let w1 = Obs.Probe.with_disabled (fun () -> words_of run) in
      let w2 = Obs.Probe.with_disabled (fun () -> words_of run) in
      let r_on = Obs.Probe.with_enabled run in
      w1 = w2
      && r_off = r_on)

(* --- span nesting under arbitrary interleavings ------------------------ *)

let eps_us = 1e-3 (* float rounding slack: timestamps are ~1e10 us *)

let nested_or_disjoint (a : Obs.Span.event) (b : Obs.Span.event) =
  a.Obs.Span.tid <> b.Obs.Span.tid
  ||
  let a0 = a.Obs.Span.ts_us and b0 = b.Obs.Span.ts_us in
  let a1 = a0 +. a.Obs.Span.dur_us and b1 = b0 +. b.Obs.Span.dur_us in
  b0 >= a1 -. eps_us
  || a0 >= b1 -. eps_us
  || (a0 <= b0 +. eps_us && b1 <= a1 +. eps_us)
  || (b0 <= a0 +. eps_us && a1 <= b1 +. eps_us)

let qcheck_span_nesting =
  QCheck.Test.make ~count:100
    ~name:"span nesting well-formed under arbitrary interleavings"
    QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 1000))
    (fun script ->
      Obs.Probe.with_enabled (fun () ->
          Obs.Span.reset ();
          let open_spans = ref [] in
          let started = ref 0 in
          List.iter
            (fun op ->
              match op mod 3 with
              | 0 | 1 ->
                let sp = Obs.Span.start (Printf.sprintf "s%d" !started) in
                incr started;
                if op mod 2 = 0 then
                  Obs.Span.add_attr sp "op" (string_of_int op);
                open_spans := sp :: !open_spans
              | _ -> (
                match !open_spans with
                | [] -> ()
                | l ->
                  (* Stop a span at an arbitrary depth: the collector
                     must close everything opened above it too. *)
                  let idx = op mod List.length l in
                  Obs.Span.stop (List.nth l idx);
                  open_spans := List.filteri (fun i _ -> i > idx) l))
            script;
          Obs.Span.stop_all ();
          let evs = Obs.Span.events () in
          let complete =
            Array.length evs = !started
            && Obs.Span.open_depth () = 0
            && Obs.Span.dropped () = 0
          in
          let well_formed = ref true in
          Array.iteri
            (fun i a ->
              Array.iteri
                (fun j b ->
                  if i < j && not (nested_or_disjoint a b) then
                    well_formed := false)
                evs)
            evs;
          (* The Chrome export of exactly this event set must pass the
             bundled validity check with every event accounted for. *)
          let chrome = Obs.Trace_json.to_chrome evs in
          let chrome_ok =
            Obs.Trace_json.validate_chrome chrome = Array.length evs
          in
          Obs.Span.reset ();
          complete && !well_formed && chrome_ok))

(* --- exporter round-trips ---------------------------------------------- *)

let chrome_roundtrip () =
  Obs.Probe.with_enabled (fun () ->
      Obs.Span.reset ();
      ignore (service_report 42);
      Obs.Span.stop_all ();
      let evs = Obs.Span.events () in
      Alcotest.(check bool) "spans recorded" true (Array.length evs > 0);
      let text = Obs.Trace_json.to_chrome evs in
      Alcotest.(check int)
        "validator sees every span" (Array.length evs)
        (Obs.Trace_json.validate_chrome text);
      (* Round-trip through the strict parser: the document really is
         JSON, with the fields the Chrome spec wants. *)
      let doc = Obs.Trace_json.parse text in
      (match Obs.Trace_json.member "traceEvents" doc with
      | Some (Obs.Trace_json.List evs_json) ->
        Alcotest.(check int)
          "parsed event count" (Array.length evs) (List.length evs_json)
      | _ -> Alcotest.fail "traceEvents missing or not an array");
      match Obs.Trace_json.member "displayTimeUnit" doc with
      | Some (Obs.Trace_json.Str "ms") -> Obs.Span.reset ()
      | _ -> Alcotest.fail "displayTimeUnit missing")

let prometheus_validates () =
  Obs.Probe.with_enabled (fun () ->
      Obs.Metrics.reset ();
      ignore (service_report 7);
      let text = Obs.Metrics.render_prometheus () in
      Alcotest.(check bool)
        "exposition has samples" true
        (Obs.Trace_json.validate_prometheus text > 0);
      Obs.Metrics.reset ())

let report_finish_writes_valid_trace () =
  let path = Filename.temp_file "cosched_obs" ".trace.json" in
  ignore (Obs.Report.configure ~trace:path () : bool);
  ignore (service_report 3);
  let note = Buffer.create 128 in
  Obs.Report.finish ~trace:path ~out:(Buffer.add_string note) ();
  Obs.Probe.disable ();
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  Alcotest.(check bool)
    "file on disk is a valid Chrome trace" true
    (Obs.Trace_json.validate_chrome text > 0);
  Alcotest.(check bool)
    "finish reported the write" true
    (String.length (Buffer.contents note) > 0)

(* --- metrics registry -------------------------------------------------- *)

let histogram_quantiles_sane () =
  let h = Obs.Metrics.histogram ~help:"test values" "test.hist" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  let p50 = Obs.Metrics.quantile h 0.5 in
  let p99 = Obs.Metrics.quantile h 0.99 in
  (* Quarter-octave buckets resolve ~19% relative: generous windows. *)
  Alcotest.(check bool) "p50 near 500" true (p50 > 350. && p50 < 750.);
  Alcotest.(check bool) "p99 near 990" true (p99 > 700. && p99 <= 1000.);
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p99);
  Alcotest.(check int) "count" 1000 (Obs.Metrics.hist_count h)

(* The histogram quantile and the exact-array quantile now share one
   rank definition ({!Util.Stats.Quantile.rank}), so the only divergence
   left is bucketing: quarter-octave buckets put every sample within
   2^(1/8) of its bucket's geometric midpoint, a <= 9.05% relative
   error (and the observed min/max clamp makes the extremes exact). *)
let hist_id = ref 0

let qcheck_histogram_matches_exact_quantile =
  QCheck.Test.make ~count:60
    ~name:"histogram quantile tracks Quantile.nearest_sorted within 9.1%"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 1 1_000_000))
    (fun xs ->
      incr hist_id;
      let h =
        Obs.Metrics.histogram ~help:"agreement property"
          (Printf.sprintf "test.hist.agree.%d" !hist_id)
      in
      let a = Array.of_list (List.map float_of_int xs) in
      Array.iter (Obs.Metrics.observe h) a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let approx = Obs.Metrics.quantile h q in
          let exact = Util.Stats.Quantile.nearest_sorted sorted q in
          Float.abs (approx -. exact) <= 0.091 *. exact)
        [ 0.; 0.5; 0.9; 0.99; 1. ])

let registry_rejects_kind_clash () =
  ignore (Obs.Metrics.histogram ~help:"test values" "test.hist");
  Alcotest.check_raises "re-registering as a counter fails"
    (Invalid_argument
       "Obs.Metrics: test.hist already registered as a histogram")
    (fun () -> ignore (Obs.Metrics.counter "test.hist"))

let format_of_string_rejects_garbage () =
  Alcotest.(check bool)
    "known formats parse" true
    (Obs.Report.format_of_string "TEXT" = Obs.Report.Text
    && Obs.Report.format_of_string "prometheus" = Obs.Report.Prometheus
    && Obs.Report.format_of_string "json" = Obs.Report.Json);
  match Obs.Report.format_of_string "yaml" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bogus format accepted"

(* --- the re-solve's phase split ------------------------------------------ *)

(* [online.resolve] opens five child spans — settle (the state view),
   partition, cost, root, install — that tile it, so over a run their
   durations sum back to the parent's within 10 % (what falls outside
   them is a few counter updates and the parent's own attributes).  A Batched 16 service
   admitting 2 000 jobs re-solves about 125 times at up to n = 2 000. *)
let resolve_phases_sum_to_parent () =
  let names =
    [ "online.resolve.settle"; "online.resolve.partition"; "online.resolve.cost";
      "online.resolve.root"; "online.resolve.install" ]
  in
  let evs =
    Obs.Probe.with_enabled (fun () ->
        Obs.Span.reset ();
        let config =
          { Online.Service.default_config with policy = Online.Policy.Batched 16 }
        in
        let lv = Online.Service.live_create ~config ~platform () in
        Array.iteri
          (fun i app ->
            ignore
              (Online.Service.submit lv ~at:(float_of_int i) app : Online.State.job))
          (synth ~seed:29 2_000);
        let evs = Obs.Span.events () in
        Obs.Span.reset ();
        evs)
  in
  let total name =
    Array.fold_left
      (fun (k, d) (ev : Obs.Span.event) ->
        if ev.Obs.Span.name = name then (k + 1, d +. ev.Obs.Span.dur_us) else (k, d))
      (0, 0.) evs
  in
  let resolves, parent = total "online.resolve" in
  Alcotest.(check bool) "re-solved" true (resolves >= 100);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " once per re-solve") resolves (fst (total name)))
    names;
  let children = List.fold_left (fun a name -> a +. snd (total name)) 0. names in
  let ratio = children /. parent in
  Alcotest.(check bool)
    (Printf.sprintf "children / parent = %.4f within 1 +- 0.1" ratio)
    true
    (Float.abs (ratio -. 1.) <= 0.1)

let () =
  Alcotest.run "obs"
    [
      ( "zero-cost",
        [
          test "disabled probe sites allocate zero minor words"
            disabled_probe_sites_zero_alloc;
          qtest qcheck_equalize_zero_words_per_eval;
        ] );
      ( "non-interference",
        [
          qtest qcheck_equalize_bit_identical;
          qtest qcheck_service_bit_identical_and_reproducible;
        ] );
      ( "spans",
        [
          qtest qcheck_span_nesting;
          test "re-solve phases sum to the re-solve" resolve_phases_sum_to_parent;
        ] );
      ( "exporters",
        [
          test "chrome trace round-trips through the strict parser"
            chrome_roundtrip;
          test "prometheus exposition passes the line checker"
            prometheus_validates;
          test "Report.finish writes a valid trace file"
            report_finish_writes_valid_trace;
        ] );
      ( "metrics",
        [
          test "histogram quantiles are sane" histogram_quantiles_sane;
          qtest qcheck_histogram_matches_exact_quantile;
          test "registry rejects kind clashes" registry_rejects_kind_clash;
          test "format_of_string accepts text/prom/json only"
            format_of_string_rejects_garbage;
        ] );
    ]
