(** Greedy choice functions for the dominant-partition heuristics
    (Section 5).

    Both Algorithm 1 and Algorithm 2 repeatedly select "the next
    application" from a candidate set; the paper proposes three criteria
    based on the dominance ratio [(w f d)^{1/(alpha+1)} / d^{1/alpha}]:
    applications with a small ratio are the ones that break dominance, so
    [MinRatio] pairs naturally with eviction (Algorithm 1) and [MaxRatio]
    with accretion (Algorithm 2).  {!Partition_builder} applies the
    criterion: a uniform draw for [Random], the smallest or largest
    ratio for [MinRatio]/[MaxRatio] with ties going to the lowest
    index. *)

type t = Random | MinRatio | MaxRatio

val name : t -> string
(** "Random", "MinRatio", "MaxRatio" — matching the paper's heuristic
    names. *)

val of_string : string -> t
(** Case-insensitive.  @raise Invalid_argument on unknown names. *)

val all : t list
