(* What one benchmark invocation was asked to do. *)

type t = {
  seed : int;
  seconds : float;  (* length of the timed phase *)
  trace : bool;  (* the separate traced run that yields per-layer metrics *)
  tiny : bool;  (* seeded miniature inputs, for the benchmark's own tests *)
  inject : string option;  (* corrupt one output on purpose: a check must fire *)
  out_dir : string;  (* scratch files, records and Chrome traces *)
  digests : string;  (* stored offline-paper figure digests *)
}

let injected c fault = c.inject = Some fault
