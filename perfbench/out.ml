(* One run's result: the metrics a benchmark harness reads, the stamp that says
   where they came from, and their JSON rendering. *)

type metric = { name : string; unit_ : string; value : float }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  samples : (string * int) list;
      (* Sample count behind each percentile or median, by metric name. *)
  notes : string list;  (* Why a check failed, or what was skipped. *)
}

let metric name unit_ value = { name; unit_; value }

(* A failed correctness check counts every attempted operation as
   failed, so the error rate of a wrong run is 1. *)
let make ~checks ~attempted ~failed ~metrics ~samples ~notes =
  let broken = List.filter_map (fun (ok, why) -> if ok then None else Some why) checks in
  let correct = broken = [] && failed = 0 in
  {
    correct;
    attempted = max attempted 1;
    failed = (if broken = [] then failed else max attempted 1);
    metrics;
    samples;
    notes = broken @ notes;
  }

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a double carries; a non-finite value is a benchmark bug,
   not a measurement. *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Out.number: non-finite metric value"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> escape k ^ ":" ^ v) fields) ^ "}"

let metrics_json ms =
  obj
    (List.map
       (fun m -> (m.name, obj [ ("value", number m.value); ("unit", escape m.unit_) ]))
       ms)

(* The result line: exactly these four keys. *)
let result_line r =
  obj
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

type stamp = {
  workload : string;
  seed : int;
  trace : bool;
  tiny : bool;
  seconds : float;
  cores : int;
  commit : string;
  ref_kernel_ms : float;
  steal_pct : float;  (* CPU time the hypervisor took during the run *)
}

let stamp_line s r =
  obj
    [
      ( "stamp",
        obj
          [
            ("workload", escape s.workload);
            ("seed", string_of_int s.seed);
            ("trace", string_of_bool s.trace);
            ("tiny", string_of_bool s.tiny);
            ("seconds", number s.seconds);
            ("cores", string_of_int s.cores);
            ("commit", escape s.commit);
            ("host.ref_kernel_ms", number s.ref_kernel_ms);
            ("host.steal_pct", number s.steal_pct);
            ("samples", obj (List.map (fun (k, n) -> (k, string_of_int n)) r.samples));
            ("notes", "[" ^ String.concat "," (List.map escape r.notes) ^ "]");
          ] );
    ]
