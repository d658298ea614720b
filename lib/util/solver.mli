(** One-dimensional root finding and optimisation.

    The co-scheduling heuristics equalise completion times by solving
    [sum_i (1 - s_i) / (K / c_i - s_i) = p] for the makespan [K]
    (Section 5 of the paper); the left-hand side is strictly decreasing in
    [K], so bisection on a bracketing interval converges unconditionally. *)

exception No_bracket of string
(** Raised when the supplied interval does not bracket a root. *)

exception Non_finite of { fn : string; x : float }
(** Raised when the objective returns NaN at abscissa [x] inside solver
    [fn].  A NaN would otherwise poison every sign test and let the
    iteration "converge" to garbage silently; the structured payload
    names the solver and the offending point instead. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** [bisect ~f lo hi] finds [x] in [lo, hi] with [f x = 0], assuming
    [f lo] and [f hi] have opposite signs (either may be zero).
    [tol] (default [1e-12], relative to interval width) controls the
    termination width; [max_iter] defaults to 200.
    @raise No_bracket if [f lo] and [f hi] have the same strict sign.
    @raise Non_finite if [f] returns NaN at any evaluated point.
    @raise Invalid_argument if [hi < lo]. *)

val bisect_decreasing :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> target:float ->
  float -> float -> float
(** [bisect_decreasing ~f ~target lo hi] solves [f x = target] for a
    (weakly) decreasing [f].  If [f lo < target] returns [lo]; if
    [f hi > target] returns [hi] (the monotone clamp used when a sweep
    leaves the bracket). *)

val expand_bracket_up :
  ?grow:float -> ?max_iter:int -> f:(float -> float) -> float -> float
(** [expand_bracket_up ~f hi0] returns some [hi >= hi0] with [f hi <= 0],
    multiplying by [grow] (default 2) until the sign flips.
    @raise No_bracket after [max_iter] (default 128) doublings. *)

val newton :
  ?tol:float -> ?max_iter:int -> ?bracket:float * float ->
  f:(float -> float) -> df:(float -> float) -> float -> float
(** Newton–Raphson from an initial guess.  When the iteration stalls — a
    vanishing or NaN derivative, a NaN step, or [max_iter] exhausted
    without meeting [tol] (default 1e-12) on [|f x|] — it falls back to
    {!bisect} on [bracket] if one is known, and only raises ([No_bracket],
    or [Non_finite] when [f] itself returned NaN) without one. *)

val golden_section_min :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** Golden-section minimisation of a unimodal [f] on [lo, hi]; returns the
    abscissa of the minimum. *)
