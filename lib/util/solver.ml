exception No_bracket of string
exception Non_finite of { fn : string; x : float }

let () =
  Printexc.register_printer (function
    | Non_finite { fn; x } ->
      Some (Printf.sprintf "Util.Solver.Non_finite: %s: f(%.17g) is NaN" fn x)
    | _ -> None)

let nan_guard ~fn x fx =
  if Float.is_nan fx then raise (Non_finite { fn; x }) else fx

let bisect ?(tol = 1e-12) ?(max_iter = 200) ~f lo hi =
  if hi < lo then invalid_arg "Solver.bisect: hi < lo";
  let f_checked x = nan_guard ~fn:"bisect" x (f x) in
  let flo = f_checked lo and fhi = f_checked hi in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else if flo *. fhi > 0.0 then
    raise (No_bracket (Printf.sprintf "bisect: f(%g)=%g and f(%g)=%g" lo flo hi fhi))
  else
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo <= tol *. (1.0 +. abs_float mid) || iter = 0 then mid
      else
        let fmid = f_checked mid in
        if fmid = 0.0 then mid
        else if flo *. fmid < 0.0 then loop lo mid flo (iter - 1)
        else loop mid hi fmid (iter - 1)
    in
    loop lo hi flo max_iter

let bisect_decreasing ?(tol = 1e-12) ?(max_iter = 200) ~f ~target lo hi =
  if hi < lo then invalid_arg "Solver.bisect_decreasing: hi < lo";
  let f_checked x = nan_guard ~fn:"bisect_decreasing" x (f x) in
  if f_checked lo < target then lo
  else if f_checked hi > target then hi
  else bisect ~tol ~max_iter ~f:(fun x -> f x -. target) lo hi

let expand_bracket_up ?(grow = 2.0) ?(max_iter = 128) ~f hi0 =
  let rec loop hi iter =
    if nan_guard ~fn:"expand_bracket_up" hi (f hi) <= 0.0 then hi
    else if iter = 0 then raise (No_bracket "expand_bracket_up: no sign change")
    else loop (hi *. grow) (iter - 1)
  in
  loop hi0 max_iter

let newton ?(tol = 1e-12) ?(max_iter = 100) ?bracket ~f ~df x0 =
  (* With a known bracket, a stalled iteration degrades to bisection —
     unconditionally convergent — instead of giving up. *)
  let fallback reason =
    match bracket with
    | Some (lo, hi) -> bisect ~tol ~f lo hi
    | None -> raise (No_bracket reason)
  in
  let rec loop x iter =
    let fx = f x in
    if Float.is_nan fx then (
      match bracket with
      | Some (lo, hi) -> bisect ~tol ~f lo hi
      | None -> raise (Non_finite { fn = "newton"; x }))
    else if abs_float fx <= tol then x
    else if iter = 0 then fallback "newton: did not converge"
    else
      let d = df x in
      if d = 0.0 || Float.is_nan d then fallback "newton: zero derivative"
      else
        let x' = x -. (fx /. d) in
        if Float.is_nan x' then fallback "newton: diverged"
        else loop x' (iter - 1)
  in
  loop x0 max_iter

let golden_section_min ?(tol = 1e-10) ?(max_iter = 200) ~f lo hi =
  if hi < lo then invalid_arg "Solver.golden_section_min: hi < lo";
  let gr = (sqrt 5.0 -. 1.0) /. 2.0 in
  (* Invariant: a < c < d < b with c, d at the golden sections of [a, b]. *)
  let rec loop a b c d fc fd iter =
    if b -. a <= tol *. (1.0 +. abs_float a) || iter = 0 then 0.5 *. (a +. b)
    else if fc < fd then
      let b = d and d = c and fd = fc in
      let c = b -. (gr *. (b -. a)) in
      loop a b c d (f c) fd (iter - 1)
    else
      let a = c and c = d and fc = fd in
      let d = a +. (gr *. (b -. a)) in
      loop a b c d fc (f d) (iter - 1)
  in
  let c = hi -. (gr *. (hi -. lo)) in
  let d = lo +. (gr *. (hi -. lo)) in
  loop lo hi c d (f c) (f d) max_iter
