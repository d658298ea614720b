(* Tests for the tooling extensions: Model.Instance_io, Theory.Bounds,
   and the gnuplot export of Experiments.Report. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b
let test name f = Alcotest.test_case name `Quick f
let qtest t = QCheck_alcotest.to_alcotest t

let platform = Model.Platform.paper_default

let synth ~seed n =
  Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth n

(* --- Instance_io ---------------------------------------------------------- *)

let io_roundtrip () =
  let apps = synth ~seed:1 8 in
  let parsed = Model.Instance_io.of_csv (Model.Instance_io.to_csv apps) in
  Alcotest.(check int) "count" 8 (Array.length parsed);
  Array.iteri
    (fun i (a : Model.App.t) ->
      let b = parsed.(i) in
      Alcotest.(check string) "name" a.name b.Model.App.name;
      check_float "w" a.w b.Model.App.w;
      check_float "s" a.s b.Model.App.s;
      check_float "f" a.f b.Model.App.f;
      check_float "m0" a.m0 b.Model.App.m0;
      check_float "c0" a.c0 b.Model.App.c0)
    apps

let io_roundtrip_infinite_footprint () =
  let apps = [| Model.App.make ~name:"x" ~w:1e9 ~f:0.5 ~m0:0.01 () |] in
  let parsed = Model.Instance_io.of_csv (Model.Instance_io.to_csv apps) in
  Alcotest.(check bool) "infinity survives" true
    (parsed.(0).Model.App.footprint = infinity)

let io_defaults_and_comments () =
  let csv =
    "# a comment\n\nname,w,s,f,m0,c0,footprint\napp1,1e10,0.05,0.5,0.01\n"
  in
  let parsed = Model.Instance_io.of_csv csv in
  Alcotest.(check int) "one app" 1 (Array.length parsed);
  check_float "default c0 40MB" 40e6 parsed.(0).Model.App.c0;
  Alcotest.(check bool) "default footprint" true
    (parsed.(0).Model.App.footprint = infinity)

let io_inf_parsing () =
  let parsed =
    Model.Instance_io.of_csv "a,1e10,0,0.5,0.01,4e7,inf\n"
  in
  Alcotest.(check bool) "inf accepted" true
    (parsed.(0).Model.App.footprint = infinity)

let io_bad_number () =
  Alcotest.(check bool) "reports line number" true
    (try
       ignore (Model.Instance_io.of_csv "name,w,s,f,m0\nbad,abc,0,0.5,0.01\n");
       false
     with Model.Instance_io.Parse_error (2, _) -> true)

let io_out_of_range () =
  Alcotest.(check bool) "validation propagates" true
    (try
       ignore (Model.Instance_io.of_csv "bad,1e10,2.0,0.5,0.01\n");
       false
     with Model.Instance_io.Parse_error (1, _) -> true)

let io_too_few_columns () =
  Alcotest.(check bool) "too few" true
    (try
       ignore (Model.Instance_io.of_csv "a,1,2\n");
       false
     with Model.Instance_io.Parse_error (1, _) -> true)

let io_crlf_and_whitespace () =
  (* Files exported from spreadsheets: CRLF line endings, a UTF-8 BOM,
     and stray whitespace around cells must all parse as-is. *)
  let csv =
    "\xEF\xBB\xBFname,w,s,f,m0,c0,footprint\r\n\
     app1, 1e10 ,\t0.05, 0.5 , 0.01 , 4e7 , inf \r\n\
     app2,2e10,0.1,0.4,0.02\r\n"
  in
  let parsed = Model.Instance_io.of_csv csv in
  Alcotest.(check int) "two apps" 2 (Array.length parsed);
  Alcotest.(check string) "name untouched" "app1" parsed.(0).Model.App.name;
  check_float "padded w" 1e10 parsed.(0).Model.App.w;
  check_float "tabbed s" 0.05 parsed.(0).Model.App.s;
  Alcotest.(check bool) "padded inf" true
    (parsed.(0).Model.App.footprint = infinity);
  check_float "CRLF-terminated trailing column" 0.02 parsed.(1).Model.App.m0

let io_error_names_offending_cell () =
  let check_mentions what csv =
    try
      ignore (Model.Instance_io.of_csv csv);
      Alcotest.fail "should not parse"
    with Model.Instance_io.Parse_error (_, msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" msg what)
        true
        (let n = String.length what and h = String.length msg in
         let rec go i =
           i + n <= h && (String.sub msg i n = what || go (i + 1))
         in
         go 0)
  in
  check_mentions "abc" "bad,abc,0,0.5,0.01\n";
  check_mentions "oops" "bad,1e10,0,0.5,0.01,4e7,oops\n";
  (* Too many columns: the first extra cell and the row are both named. *)
  check_mentions "surplus" "bad,1e10,0,0.5,0.01,4e7,inf,surplus\n";
  (* Too few columns: the row text is named. *)
  check_mentions "a,1,2" "a,1,2\n"

let io_file_roundtrip () =
  let apps = synth ~seed:2 5 in
  let path = Filename.temp_file "cosched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model.Instance_io.save path apps;
      let parsed = Model.Instance_io.load path in
      Alcotest.(check int) "count" 5 (Array.length parsed);
      check_float "w survives" apps.(3).Model.App.w parsed.(3).Model.App.w)

let qcheck_io_roundtrip =
  QCheck.Test.make ~name:"CSV roundtrip on random instances" ~count:50
    QCheck.(pair (int_bound 10_000) (int_range 1 20))
    (fun (seed, n) ->
      let apps =
        Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.Random n
      in
      let parsed = Model.Instance_io.of_csv (Model.Instance_io.to_csv apps) in
      Array.length parsed = n
      && Array.for_all2
           (fun (a : Model.App.t) (b : Model.App.t) ->
             a.w = b.Model.App.w && a.s = b.Model.App.s && a.m0 = b.Model.App.m0)
           apps parsed)

(* --- Bounds ----------------------------------------------------------------- *)

let bounds_sandwich_exact () =
  for seed = 1 to 8 do
    let apps =
      Model.Workload.generate ~fixed_s:0. ~rng:(Util.Rng.create seed)
        Model.Workload.NpbSynth 6
    in
    let lower = Theory.Bounds.lower_bound ~platform ~apps in
    let upper = Theory.Bounds.upper_bound ~platform ~apps in
    let exact = (Theory.Exact.optimal ~platform ~apps ()).Theory.Exact.makespan in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: lower <= exact" seed)
      true
      (lower <= exact *. (1. +. 1e-9));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: exact <= upper" seed)
      true
      (exact <= upper *. (1. +. 1e-9))
  done

let bounds_sandwich_heuristic_large () =
  (* Far beyond 2^n reach: the heuristic must still sit in the sandwich. *)
  let apps = synth ~seed:9 128 in
  let rng = Util.Rng.create 10 in
  let h =
    Sched.Heuristics.makespan ~rng ~platform ~apps
      Sched.Heuristics.dominant_min_ratio
  in
  let lower = Theory.Bounds.lower_bound ~platform ~apps in
  let upper = Theory.Bounds.upper_bound ~platform ~apps in
  Alcotest.(check bool) "lower <= heuristic" true (lower <= h *. (1. +. 1e-9));
  Alcotest.(check bool) "heuristic <= upper" true (h <= upper *. (1. +. 1e-9))

let bounds_gap_at_least_one () =
  let apps = synth ~seed:11 16 in
  Alcotest.(check bool) "gap >= 1" true (Theory.Bounds.gap ~platform ~apps >= 1.)

let bounds_gap_one_without_misses () =
  (* Applications that never miss are cache-indifferent: gap = 1. *)
  let apps = [| Model.App.make ~w:1e10 ~f:0.5 ~m0:0. ~s:0.1 () |] in
  check_close ~eps:1e-9 "gap 1" 1. (Theory.Bounds.gap ~platform ~apps)

let bounds_empty_rejected () =
  Alcotest.(check bool) "empty" true
    (try
       ignore (Theory.Bounds.lower_bound ~platform ~apps:[||]);
       false
     with Invalid_argument _ -> true)

(* --- Report gnuplot export ------------------------------------------------- *)

let sample_figure () =
  Experiments.Report.make ~id:"t" ~title:"test fig" ~xlabel:"x"
    ~columns:[ "a"; "b" ]
    ~rows:[ (1., [ 2.; 4. ]); (2., [ 3.; 6. ]) ]

let dat_format () =
  let dat = Experiments.Report.to_dat (sample_figure ()) in
  let lines = String.split_on_char '\n' dat in
  Alcotest.(check string) "comment header" "# x a b" (List.nth lines 0);
  Alcotest.(check string) "row 1" "1 2 4" (List.nth lines 1);
  Alcotest.(check string) "row 2" "2 3 6" (List.nth lines 2)

let gnuplot_script () =
  let gp = Experiments.Report.to_gnuplot ~datfile:"t.dat" (sample_figure ()) in
  Alcotest.(check bool) "sets output" true
    (String.length gp > 0
    &&
    let has needle =
      let n = String.length needle and m = String.length gp in
      let rec scan i = i + n <= m && (String.sub gp i n = needle || scan (i + 1)) in
      scan 0
    in
    has "set output \"t.png\"" && has "using 1:2" && has "using 1:3"
    && has "title \"a\"" && has "title \"b\"")

let () =
  Alcotest.run "tooling"
    [
      ( "instance_io",
        [
          test "roundtrip" io_roundtrip;
          test "infinite footprint" io_roundtrip_infinite_footprint;
          test "defaults and comments" io_defaults_and_comments;
          test "inf parsing" io_inf_parsing;
          test "bad number reports line" io_bad_number;
          test "range validation propagates" io_out_of_range;
          test "too few columns" io_too_few_columns;
          test "CRLF, BOM and padded cells" io_crlf_and_whitespace;
          test "errors name the offending cell" io_error_names_offending_cell;
          test "file roundtrip" io_file_roundtrip;
          qtest qcheck_io_roundtrip;
        ] );
      ( "bounds",
        [
          test "sandwich the exact optimum" bounds_sandwich_exact;
          test "sandwich heuristics at n=128" bounds_sandwich_heuristic_large;
          test "gap at least 1" bounds_gap_at_least_one;
          test "gap 1 without misses" bounds_gap_one_without_misses;
          test "empty rejected" bounds_empty_rejected;
        ] );
      ( "report_export",
        [ test "dat format" dat_format; test "gnuplot script" gnuplot_script ] );
    ]
