(** Stable content hashing for campaign journal keys.

    A 64-bit FNV-1a accumulator over an explicit byte serialisation of the
    hashed values: keys depend only on field *contents* (floats are hashed
    through their IEEE-754 bits, strings are length-prefixed), never on
    physical identity or on [Stdlib.Hashtbl.hash]'s traversal limits, so a
    key computed today matches a key stored in an on-disk journal by a
    past run. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** A fresh accumulator at the FNV-1a offset basis. *)

val string : t -> string -> unit
(** Length-prefixed, so consecutive fields cannot alias. *)

val int : t -> int -> unit
(** Hashed as 8 little-endian bytes. *)

val int64 : t -> int64 -> unit
(** Hashed as 8 little-endian bytes. *)

val float : t -> float -> unit
(** Hashes the IEEE-754 bit pattern ([-0.], [nan] payloads and all). *)

val bool : t -> bool -> unit
(** One byte, 0 or 1. *)

val app : t -> Model.App.t -> unit
(** All six model fields plus the name. *)

val platform : t -> Model.Platform.t -> unit
(** All platform fields (processor count, cache size, slowdown constants). *)

val to_hex : t -> string
(** 16-char lowercase hex of the current state. *)

val of_string : string -> string
(** One-shot digest of a raw byte string (no length prefix) — the
    per-line checksum used by {!Journal} to detect torn or corrupted
    entries. *)

val instance : platform:Model.Platform.t -> apps:Model.App.t array -> string
(** One-shot digest of a problem instance. *)

val trial :
  kind:string ->
  platform:Model.Platform.t ->
  apps:Model.App.t array ->
  policies:string list ->
  state:int64 ->
  string
(** Journal key of one experiment trial: the instance, the policy names (in
    evaluation order), the trial RNG's pristine state, and a [kind] tag
    distinguishing payload layouts (e.g. ["mean-makespans"] vs
    ["repartition"]) that could otherwise collide. *)

val tagged : tag:string -> state:int64 -> string
(** Journal key of an ad-hoc trial fully described by a free-form tag (the
    experiment id and its fixed parameters) plus the trial RNG state. *)
