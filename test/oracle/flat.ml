(* The service as it ran before progress was epoch-anchored: every event
   integrates every running job's remaining fraction and the busy
   integral over the elapsed step (the loop [State.advance] used to run),
   and every event re-predicts the next completion as
   [now + min (remaining * exe)].  Re-solves run the production warm
   solver, on its own [Incremental.t], over a scratch state into which
   the oracle's live jobs are injected at their current progress with
   the clock on the anchor — so the solver sees bit-identical inputs
   whenever the two sides' remaining fractions agree. *)
type ojob = {
  o_app : Model.App.t;
  mutable o_rem : float;
  mutable o_procs : float;
  mutable o_cache : float;
  mutable o_access : float;
  mutable o_exe : float;
  mutable o_live : bool;
  mutable o_finish : float option;
  mutable o_cancelled : bool;
}

type t = {
  o_platform : Model.Platform.t;
  o_policy : Online.Policy.t;
  o_inc : Online.Incremental.t;
  mutable o_clock : float;
  mutable o_busy : float;
  mutable o_jobs : ojob list; (* id order, newest last *)
  mutable o_since : int;
  mutable o_last_solve : float;
  mutable o_pred : float option;
  mutable o_resolves : int;
}

let create ~platform policy =
  {
    o_platform = platform;
    o_policy = policy;
    o_inc = Online.Incremental.create ();
    o_clock = 0.;
    o_busy = 0.;
    o_jobs = [];
    o_since = 0;
    o_last_solve = 0.;
    o_pred = None;
    o_resolves = 0;
  }

let live_jobs o = List.filter (fun j -> j.o_live) o.o_jobs

let advance o ~to_ =
  let dt = to_ -. o.o_clock in
  if dt > 0. then
    List.iter
      (fun j ->
        if j.o_live && j.o_procs > 0. then begin
          o.o_busy <- o.o_busy +. (j.o_procs *. dt);
          if j.o_rem > 0. then j.o_rem <- Float.max 0. (j.o_rem -. (dt /. j.o_exe))
        end)
      o.o_jobs;
  o.o_clock <- Float.max o.o_clock to_

let resolve o =
  let live = live_jobs o in
  if live <> [] then begin
    let platform = o.o_platform in
    let st = Online.State.create platform in
    Online.State.restore st ~clock:o.o_clock ~anchor:o.o_clock ~next_id:0 ~busy:0.
      ~live:(List.length live);
    let handles =
      List.mapi
        (fun i j ->
          Online.State.inject st ~id:i ~app:j.o_app ~arrival:0. ~remaining:j.o_rem
            ~procs:j.o_procs ~cache:j.o_cache ~allocated:false ~epoch:0 ~migrations:0)
        live
    in
    ignore
      (Online.Incremental.solve_state o.o_inc ~elapsed:(o.o_clock -. o.o_last_solve)
         ~state:st);
    List.iter2
      (fun j h ->
        j.o_procs <- Online.State.procs h;
        j.o_cache <- Online.State.cache h;
        j.o_access <- Model.Exec_model.access_cost ~app:j.o_app ~platform j.o_cache;
        j.o_exe <-
          (if j.o_procs > 0. then
             Model.Exec_model.exe ~app:j.o_app ~platform ~p:j.o_procs ~x:j.o_cache
           else infinity))
      live handles;
    o.o_since <- 0;
    o.o_last_solve <- o.o_clock;
    o.o_resolves <- o.o_resolves + 1
  end

let decide o =
  let live = live_jobs o in
  if live <> [] then begin
    let queued = List.exists (fun j -> j.o_procs = 0.) live in
    let running = List.exists (fun j -> j.o_procs > 0.) live in
    let degradation () =
      let p = o.o_platform.Model.Platform.p in
      let used = ref 0. and queued_w = ref 0. and total_w = ref 0. in
      List.iter
        (fun j ->
          used := !used +. j.o_procs;
          let wk = j.o_rem *. (j.o_app.Model.App.w *. j.o_access) in
          total_w := !total_w +. wk;
          if j.o_procs = 0. then queued_w := !queued_w +. wk)
        live;
      let frac = (p -. !used) /. p in
      (if frac > 1e-9 then frac else 0.)
      +. if !total_w > 0. then !queued_w /. !total_w else 0.
    in
    if queued && not running then resolve o
    else if
      Online.Policy.should_resolve o.o_policy ~events_pending:o.o_since ~degradation
    then resolve o
  end

let predict o =
  let m = ref infinity in
  List.iter
    (fun j ->
      if j.o_live && j.o_procs > 0. then begin
        let v = j.o_rem *. j.o_exe in
        if v < !m then m := v
      end)
    o.o_jobs;
  o.o_pred <- (if !m < infinity then Some (o.o_clock +. !m) else None)

let after_event o =
  o.o_since <- o.o_since + 1;
  decide o;
  predict o

(* Fire every prediction due at or before [at], as the engine does. *)
let rec fire o ~at =
  match o.o_pred with
  | Some tp when tp <= at ->
    advance o ~to_:tp;
    List.iter
      (fun j ->
        if j.o_live && j.o_procs > 0. && j.o_rem <= 1e-9 then begin
          j.o_live <- false;
          j.o_rem <- 0.;
          j.o_procs <- 0.;
          j.o_cache <- 0.;
          j.o_finish <- Some tp
        end)
      o.o_jobs;
    after_event o;
    fire o ~at
  | _ -> ()

let submit o ~at app =
  let at = Float.max at o.o_clock in
  fire o ~at;
  advance o ~to_:at;
  o.o_jobs <-
    o.o_jobs
    @ [
        {
          o_app = app;
          o_rem = 1.;
          o_procs = 0.;
          o_cache = 0.;
          o_access = Model.Exec_model.access_cost ~app ~platform:o.o_platform 0.;
          o_exe = infinity;
          o_live = true;
          o_finish = None;
          o_cancelled = false;
        };
      ];
  after_event o

let cancel o ~at ~id =
  let at = Float.max at o.o_clock in
  fire o ~at;
  match List.nth_opt o.o_jobs id with
  | Some j when j.o_live ->
    advance o ~to_:at;
    j.o_live <- false;
    j.o_procs <- 0.;
    j.o_cache <- 0.;
    j.o_cancelled <- true;
    after_event o
  | _ -> ()

let ping o ~at =
  let at = Float.max at o.o_clock in
  fire o ~at;
  advance o ~to_:at

let drain o =
  let continue_ = ref true in
  while !continue_ do
    fire o ~at:infinity;
    if live_jobs o = [] then continue_ := false
    else begin
      resolve o;
      predict o
    end
  done

let apply state jobs allocs =
  let v = Online.State.view state in
  let n = v.Online.State.v_n in
  if n <> Array.length jobs || n <> Array.length allocs then
    invalid_arg "apply: jobs must be the live set, one allocation each";
  let platform = Online.State.platform state in
  let procs = Array.map (fun (a : Model.Schedule.alloc) -> a.procs) allocs in
  let cache = Array.map (fun (a : Model.Schedule.alloc) -> a.cache) allocs in
  let access =
    Array.map2
      (fun j x -> Model.Exec_model.access_cost ~app:(Online.State.app j) ~platform x)
      jobs cache
  in
  Online.State.apply_view state ~n ~procs ~cache ~access
