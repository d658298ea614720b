type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* --- strict parser ----------------------------------------------------- *)

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at byte %d" msg !pos) in
  let peek () = if !pos < n then text.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          (* UTF-8 encode the BMP code point. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail "bad escape");
        loop ()
      end
      else if Char.code c < 0x20 then fail "control character in string"
      else begin
        Buffer.add_char b c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ()
          | '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements ()
          | ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- chrome export ----------------------------------------------------- *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let dedup_args args =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    args

let to_chrome (events : Span.event array) =
  let t0 =
    Array.fold_left
      (fun acc (e : Span.event) -> Float.min acc e.Span.ts_us)
      infinity events
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iteri
    (fun i (e : Span.event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      add_escaped b e.Span.name;
      Buffer.add_string b
        (Printf.sprintf
           ",\"cat\":\"cosched\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (e.Span.ts_us -. t0)
           e.Span.dur_us e.Span.tid);
      (match dedup_args e.Span.args with
      | [] -> ()
      | args ->
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            add_escaped b k;
            Buffer.add_char b ':';
            add_escaped b v)
          args;
        Buffer.add_char b '}');
      Buffer.add_char b '}')
    events;
  Buffer.add_string b
    (Printf.sprintf
       "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"cosched_dropped_spans\":\"%d\"}}"
       (Span.dropped ()));
  Buffer.contents b

(* --- validity checks ---------------------------------------------------- *)

let validate_chrome text =
  let doc = parse text in
  let events =
    match member "traceEvents" doc with
    | Some (List evs) -> evs
    | Some _ -> failwith "chrome trace: traceEvents is not an array"
    | None -> failwith "chrome trace: missing traceEvents"
  in
  List.iteri
    (fun i ev ->
      let ctx msg = failwith (Printf.sprintf "chrome trace: event %d: %s" i msg) in
      let str key =
        match member key ev with
        | Some (Str s) -> s
        | _ -> ctx (Printf.sprintf "missing string %S" key)
      in
      let num key =
        match member key ev with
        | Some (Num f) -> f
        | _ -> ctx (Printf.sprintf "missing number %S" key)
      in
      ignore (str "name");
      ignore (num "ts");
      ignore (num "pid");
      ignore (num "tid");
      let ph = str "ph" in
      if ph = "X" then begin
        let dur = num "dur" in
        if not (dur >= 0.) then ctx "negative dur"
      end)
    events;
  List.length events

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let validate_prometheus text =
  let typed = Hashtbl.create 16 in
  let samples = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno line ->
      let fail msg =
        failwith
          (Printf.sprintf "prometheus exposition: line %d: %s" (lineno + 1) msg)
      in
      if line = "" then ()
      else if String.length line >= 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ when name <> "" -> ()
        | "#" :: "TYPE" :: name :: [ kind ] ->
          if
            not
              (List.mem kind
                 [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ])
          then fail ("unknown TYPE " ^ kind);
          Hashtbl.replace typed name ()
        | _ -> fail "malformed comment (expected # HELP or # TYPE)"
      end
      else begin
        (* name[{labels}] value *)
        let len = String.length line in
        if not (is_name_start line.[0]) then fail "bad metric name start";
        let i = ref 0 in
        while !i < len && is_name_char line.[!i] do
          incr i
        done;
        let name = String.sub line 0 !i in
        if !i < len && line.[!i] = '{' then begin
          (* scan the label block: quoted values may contain anything *)
          incr i;
          let in_q = ref false and esc = ref false and closed = ref false in
          while !i < len && not !closed do
            let c = line.[!i] in
            (if !in_q then
               if !esc then esc := false
               else if c = '\\' then esc := true
               else if c = '"' then in_q := false
               else ()
             else if c = '"' then in_q := true
             else if c = '}' then closed := true);
            incr i
          done;
          if not !closed then fail "unterminated label block"
        end;
        if !i >= len || line.[!i] <> ' ' then fail "expected space before value";
        let value = String.sub line (!i + 1) (len - !i - 1) in
        (match value with
        | "NaN" | "+Inf" | "-Inf" -> ()
        | v ->
          if float_of_string_opt v = None then fail ("bad sample value " ^ v));
        let base =
          let strip suffix =
            if
              String.length name > String.length suffix
              && String.sub name
                   (String.length name - String.length suffix)
                   (String.length suffix)
                 = suffix
            then
              Some (String.sub name 0 (String.length name - String.length suffix))
            else None
          in
          match (strip "_sum", strip "_count") with
          | Some b, _ when Hashtbl.mem typed b -> b
          | _, Some b when Hashtbl.mem typed b -> b
          | _ -> name
        in
        if not (Hashtbl.mem typed base) then
          fail ("sample " ^ name ^ " has no preceding # TYPE");
        incr samples
      end)
    lines;
  !samples

let write ~path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path
