(** Chrome [trace_event] export and the bundled validity checkers.

    {!to_chrome} renders collected {!Span.event}s as the JSON object
    format of the Chrome tracing spec — one complete (["ph":"X"]) event
    per span, microsecond timestamps rebased to the earliest span — a
    file that loads directly in [chrome://tracing] and Perfetto.

    The module also carries a small strict JSON parser ({!parse}) and
    two validity checks built on it: {!validate_chrome} accepts exactly
    the traces this module emits (every emitted trace is checked before
    it is written — a mangled emission fails the run, it does not land
    on disk), and {!validate_prometheus} line-checks the text
    exposition {!Metrics.render_prometheus} produces.  The test suite
    round-trips arbitrary span interleavings through these checkers. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list
(** Minimal JSON document tree ({!Obj} fields in source order). *)

val parse : string -> json
(** Strict RFC-8259 subset parser: objects, arrays, strings with the
    standard escapes ([\uXXXX] accepted, decoded as-is into UTF-8 for
    the BMP), numbers, literals; rejects trailing garbage.
    @raise Failure with a byte offset on malformed input. *)

val member : string -> json -> json option
(** Field lookup on an {!Obj}; [None] on other constructors. *)

val add_escaped : Buffer.t -> string -> unit
(** Append [s] to the buffer as a JSON string literal, quotes included:
    ["\""], ["\\"], newline, carriage return and tab get their short
    escapes, other control characters [\u00XX]; every other byte is
    copied as is.  The one escaper behind every JSON document the
    repository writes (wire frames, snapshots, traces, metrics). *)

val to_chrome : Span.event array -> string
(** The [{"traceEvents":[...],"displayTimeUnit":"ms",...}] object.
    Timestamps are microseconds rebased so the earliest span starts at
    0; span attributes become the event's ["args"] (duplicate keys
    deduplicated, latest {!Span.add_attr} binding wins); the collector's
    drop count (see {!Span.dropped}) is exported as
    ["cosched_dropped_spans"] metadata rather than silently omitted. *)

val validate_chrome : string -> int
(** Parse a Chrome trace and check shape: top-level object with a
    ["traceEvents"] array whose every element has string ["name"] and
    ["ph"], numeric ["ts"], ["pid"] and ["tid"], phase ["X"] events
    carrying numeric ["dur"] >= 0.  Returns the event count.
    @raise Failure describing the first violation. *)

val validate_prometheus : string -> int
(** Check Prometheus text-exposition well-formedness: every line is a
    comment ([# HELP]/[# TYPE] with a known kind), blank, or a sample
    [name{labels} value] with a legal metric name and a float value;
    every sample's base name has a preceding [# TYPE].  Returns the
    number of sample lines.
    @raise Failure describing the first offending line. *)

val write : path:string -> string -> unit
(** Write atomically via temp file + rename in [path]'s directory (the
    repo-wide convention: a crash never leaves a torn file). *)
