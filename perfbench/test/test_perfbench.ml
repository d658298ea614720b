(* The benchmark's own tests, on seeded tiny inputs: every workload, and
   the traced run, prints exactly the metrics BENCHMARK.json names with
   their units; every correctness check fires on a corrupted output. *)

module J = Obs.Trace_json

let workloads = [ "wire-mixed"; "live-1e5"; "offline-paper" ]

let field k j =
  match J.member k j with Some v -> v | None -> Alcotest.failf "missing key %s" k

(* (name, unit) pairs of one BENCHMARK.json section. *)
let declared section =
  let spec = J.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  match field section spec with
  | J.List ms ->
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | J.Str n, J.Str u -> (n, u)
        | _ -> Alcotest.fail "name/unit must be strings")
      ms
  | _ -> Alcotest.failf "%s is not a list" section

(* Run one tiny workload; the parsed last line of its standard output. *)
let run ?inject workload trace =
  let args =
    [ "../bench.exe"; "--workload"; workload; "--seed"; "1"; "--seconds"; "0.4";
      "--trace"; string_of_int trace; "--tiny"; "--out"; "_out"; "--digests"; "../digests.txt" ]
    @ match inject with Some f -> [ "--inject"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in "../bench.exe" (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s exited abnormally" (String.concat " " args));
  match List.rev lines with
  | last :: _ -> J.parse last
  | [] -> Alcotest.fail "no output"

let num j = match j with J.Num f -> f | _ -> Alcotest.fail "not a number"

let check_result workload trace () =
  let r = run workload trace in
  (match r with
  | J.Obj fields ->
    Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "result is not an object");
  Alcotest.(check bool) "correct" true (field "correct" r = J.Bool true);
  Alcotest.(check (float 0.)) "failed" 0. (num (field "failed" r));
  Alcotest.(check bool) "attempted >= 1" true (num (field "attempted" r) >= 1.);
  let metrics =
    match field "metrics" r with
    | J.Obj ms ->
      List.map
        (fun (n, m) ->
          match field "unit" m with
          | J.Str u -> (n, u, num (field "value" m))
          | _ -> Alcotest.fail "unit")
        ms
    | _ -> Alcotest.fail "metrics"
  in
  let want = declared (if trace = 0 then "end_to_end" else "per_layer") in
  Alcotest.(check (list (pair string string))) "names and units" want
    (List.map (fun (n, u, _) -> (n, u)) metrics);
  List.iter
    (fun (n, _, v) ->
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" n;
      if trace = 0 && v <= 0. then Alcotest.failf "end-to-end metric %s is %g" n v)
    metrics

let check_fault workload trace fault () =
  let r = run ~inject:fault workload trace in
  Alcotest.(check bool) "correct" false (field "correct" r = J.Bool true);
  Alcotest.(check (float 0.)) "every operation failed" (num (field "attempted" r)) (num (field "failed" r))

let () =
  let runs =
    List.concat_map
      (fun w ->
        List.map
          (fun t -> Alcotest.test_case (Printf.sprintf "%s trace %d" w t) `Quick (check_result w t))
          [ 0; 1 ])
      workloads
  in
  let faults =
    List.map
      (fun (w, t, f) -> Alcotest.test_case (Printf.sprintf "%s %s" w f) `Quick (check_fault w t f))
      [
        ("wire-mixed", 0, "drop-reply");
        ("wire-mixed", 0, "live-count");
        ("wire-mixed", 1, "corrupt-response");
        ("live-1e5", 0, "lose-job");
        ("offline-paper", 0, "flip-digest");
        ("offline-paper", 1, "jobs-mismatch");
      ]
  in
  Alcotest.run "perfbench" [ ("metrics", runs); ("checks fire", faults) ]
