type counter = { cname : string; chelp : string; cv : int Atomic.t }
type gauge = { gname : string; ghelp : string; mutable gv : float }

(* Quarter-octave log buckets: slot 0 is underflow (v <= 2^-16,
   nonpositive, NaN), slots 1..n_regular cover [2^-16, 2^48) with bucket
   k spanning [2^((min_exp+k-1)/4), 2^((min_exp+k)/4)), the last slot is
   overflow.  256 int slots = 2 KB per histogram. *)
let n_regular = 256
let min_exp = -64 (* quarter-octaves: lower edge 2^(-64/4) = 2^-16 *)

type histogram = {
  hname : string;
  hhelp : string;
  buckets : int array; (* n_regular + 2 slots *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type instrument = C of counter | G of gauge | H of histogram

let lock = Mutex.create ()
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name make match_ =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> (
        match match_ i with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name i)))
      | None ->
        let v, i = make () in
        Hashtbl.add registry name i;
        v)

let counter ?(help = "") name =
  register name
    (fun () ->
      let c = { cname = name; chelp = help; cv = Atomic.make 0 } in
      (c, C c))
    (function C c -> Some c | _ -> None)

let gauge ?(help = "") name =
  register name
    (fun () ->
      let g = { gname = name; ghelp = help; gv = 0. } in
      (g, G g))
    (function G g -> Some g | _ -> None)

let fresh_histogram name help =
  {
    hname = name;
    hhelp = help;
    buckets = Array.make (n_regular + 2) 0;
    hcount = 0;
    hsum = 0.;
    hmin = infinity;
    hmax = neg_infinity;
  }

let histogram ?(help = "") name =
  register name
    (fun () ->
      let h = fresh_histogram name help in
      (h, H h))
    (function H h -> Some h | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.cv 1)
let add c n = ignore (Atomic.fetch_and_add c.cv n)
let count c = Atomic.get c.cv
let set g v = g.gv <- v
let value g = g.gv

let slot_of v =
  if Float.is_nan v || v <= 0. then 0
  else if v = infinity then n_regular + 1
  else
    let raw = int_of_float (Float.floor (4. *. Float.log2 v)) in
    if raw < min_exp then 0
    else if raw >= min_exp + n_regular then n_regular + 1
    else 1 + raw - min_exp

(* Geometric midpoint of a regular slot. *)
let slot_mid k = Float.exp2 (float_of_int (min_exp + k - 1) /. 4. +. 0.125)

let observe h v =
  let s = slot_of v in
  locked (fun () ->
      h.buckets.(s) <- h.buckets.(s) + 1;
      h.hcount <- h.hcount + 1;
      if Float.is_finite v && v > 0. then begin
        h.hsum <- h.hsum +. v;
        if v < h.hmin then h.hmin <- v;
        if v > h.hmax then h.hmax <- v
      end)

let hist_count h = h.hcount
let hist_sum h = h.hsum

let quantile h q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg "Obs.Metrics.quantile: q must be in [0, 1]";
  locked (fun () ->
      if h.hcount = 0 then 0.
      else begin
        let target = Util.Stats.Quantile.rank ~count:h.hcount ~q in
        let cum = ref 0 and slot = ref (n_regular + 1) in
        (try
           for k = 0 to n_regular + 1 do
             cum := !cum + h.buckets.(k);
             if !cum >= target then begin
               slot := k;
               raise Exit
             end
           done
         with Exit -> ());
        let raw =
          if !slot = 0 then if Float.is_finite h.hmin then h.hmin else 0.
          else if !slot = n_regular + 1 then
            if Float.is_finite h.hmax then h.hmax else infinity
          else slot_mid !slot
        in
        if Float.is_finite h.hmin && Float.is_finite h.hmax then
          Float.min h.hmax (Float.max h.hmin raw)
        else raw
      end)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> Atomic.set c.cv 0
          | G g -> g.gv <- 0.
          | H h ->
            Array.fill h.buckets 0 (Array.length h.buckets) 0;
            h.hcount <- 0;
            h.hsum <- 0.;
            h.hmin <- infinity;
            h.hmax <- neg_infinity)
        registry)

(* --- exporters --------------------------------------------------------- *)

let sorted_instruments () =
  locked (fun () -> Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [quantile] takes the registry lock, so compute quantiles outside
   [locked] sections only. *)
let hist_quantiles h = (quantile h 0.5, quantile h 0.9, quantile h 0.99)

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let render_table () =
  let header = [ "metric"; "type"; "value"; "mean"; "p50"; "p90"; "p99"; "max" ] in
  let rows =
    List.map
      (fun (name, i) ->
        match i with
        | C c -> [ name; "counter"; string_of_int (count c); ""; ""; ""; ""; "" ]
        | G g -> [ name; "gauge"; fnum g.gv; ""; ""; ""; ""; "" ]
        | H h ->
          let p50, p90, p99 = hist_quantiles h in
          let mean =
            if h.hcount = 0 then 0. else h.hsum /. float_of_int h.hcount
          in
          [
            name; "histogram"; string_of_int h.hcount; fnum mean; fnum p50;
            fnum p90; fnum p99;
            fnum (if Float.is_finite h.hmax then h.hmax else 0.);
          ])
      (sorted_instruments ())
  in
  let all = header :: rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun j cell ->
         if String.length cell > widths.(j) then widths.(j) <- String.length cell))
    all;
  let render_row cells =
    String.concat "  "
      (List.mapi
         (fun j cell ->
           if j = 0 then
             cell ^ String.make (widths.(j) - String.length cell) ' '
           else String.make (widths.(j) - String.length cell) ' ' ^ cell)
         cells)
  in
  let sep =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)
  ^ "\n"

let prom_name name =
  "cosched_"
  ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let render_prometheus () =
  let b = Buffer.create 1024 in
  let meta name help kind =
    if help <> "" then
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (name, i) ->
      let pname = prom_name name in
      match i with
      | C c ->
        meta pname c.chelp "counter";
        Buffer.add_string b (Printf.sprintf "%s %d\n" pname (count c))
      | G g ->
        meta pname g.ghelp "gauge";
        Buffer.add_string b (Printf.sprintf "%s %s\n" pname (prom_float g.gv))
      | H h ->
        let p50, p90, p99 = hist_quantiles h in
        meta pname h.hhelp "summary";
        Buffer.add_string b
          (Printf.sprintf "%s{quantile=\"0.5\"} %s\n" pname (prom_float p50));
        Buffer.add_string b
          (Printf.sprintf "%s{quantile=\"0.9\"} %s\n" pname (prom_float p90));
        Buffer.add_string b
          (Printf.sprintf "%s{quantile=\"0.99\"} %s\n" pname (prom_float p99));
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" pname (prom_float h.hsum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname h.hcount))
    (sorted_instruments ());
  Buffer.contents b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Trace_json.add_escaped b s;
  Buffer.contents b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let render_json () =
  let instruments = sorted_instruments () in
  let pick f = List.filter_map f instruments in
  let counters =
    pick (function
      | name, C c -> Some (Printf.sprintf "%s:%d" (json_string name) (count c))
      | _ -> None)
  in
  let gauges =
    pick (function
      | name, G g ->
        Some (Printf.sprintf "%s:%s" (json_string name) (json_float g.gv))
      | _ -> None)
  in
  let histograms =
    pick (function
      | name, H h ->
        let p50, p90, p99 = hist_quantiles h in
        Some
          (Printf.sprintf
             "%s:{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
             (json_string name) h.hcount (json_float h.hsum)
             (json_float (if Float.is_finite h.hmin then h.hmin else 0.))
             (json_float (if Float.is_finite h.hmax then h.hmax else 0.))
             (json_float p50) (json_float p90) (json_float p99))
      | _ -> None)
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    (String.concat "," counters)
    (String.concat "," gauges)
    (String.concat "," histograms)
