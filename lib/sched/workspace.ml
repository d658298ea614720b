(* Reusable solver scratch space.

   The equalisation and refinement loops are called hundreds of times per
   figure point and once per event by the online service; historically
   every call allocated fresh [costs]/[procs]/gradient/proposal arrays.
   A workspace owns growable float buffers that are handed out by
   capacity: accessors guarantee [capacity >= n] and return the same
   array on every call, so a solve reuses the buffers of the previous
   one and the steady state allocates nothing.

   Buffers hold garbage beyond the requested [n] and are overwritten by
   every solve; never let one escape a solver call.  A workspace is
   single-threaded by construction — give each domain its own. *)

type t = {
  mutable seq : float array;
  mutable costs : float array;
  mutable procs : float array;
  mutable gradient : float array;
  mutable proposal : float array;
}

let create ?(n = 0) () =
  {
    seq = Array.make n 0.;
    costs = Array.make n 0.;
    procs = Array.make n 0.;
    gradient = Array.make n 0.;
    proposal = Array.make n 0.;
  }

let grow a n =
  if Array.length a >= n then a
  else Array.make (max n ((2 * Array.length a) + 8)) 0.

let seq t n =
  let a = grow t.seq n in
  t.seq <- a;
  a

let costs t n =
  let a = grow t.costs n in
  t.costs <- a;
  a

let procs t n =
  let a = grow t.procs n in
  t.procs <- a;
  a

let gradient t n =
  let a = grow t.gradient n in
  t.gradient <- a;
  a

let proposal t n =
  let a = grow t.proposal n in
  t.proposal <- a;
  a
