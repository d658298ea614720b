(** Wire protocol of the co-scheduling daemon.

    Pure codec: values in, JSON strings out, and back — no sockets, no
    clocks, no scheduler state, so the whole protocol is testable
    without a daemon.  Payloads are single-line UTF-8 JSON objects
    carried inside {!Frame}s; every object has a ["v"] field naming the
    protocol version so old clients fail with a structured error rather
    than a parse crash.

    Decoding never raises: malformed input comes back as
    [Error (code, message)] with a {!error_code} the daemon can serialise
    straight into an error reply. *)

val version : int
(** Protocol version stamped into (and required of) every payload. *)

type app_spec = {
  name : string;        (** Human label, echoed in views. *)
  w : float;            (** Sequential work (paper's [w_i]). *)
  s : float;            (** Speedup-profile exponent. *)
  f : float;            (** Cache-sensitive fraction of the work. *)
  m0 : float;           (** Miss-rate scale at one cache fraction. *)
  c0 : float;           (** Cache-pressure offset. *)
  footprint : float;    (** Working-set bytes; [infinity] = unbounded
                            (omitted on the wire). *)
}
(** Application parameters as submitted by a client; converted to a
    validated {!Model.App.t} by the daemon backend. *)

type query = Stats | Status | Allocs | Job of int
(** What a [query] verb asks for: cumulative service metrics, a coarse
    daemon status line, the current per-job allocations, or one job. *)

type verb =
  | Submit of app_spec    (** Admit a new job. *)
  | Cancel of int         (** Remove a job by id. *)
  | Query of query        (** Read-only introspection. *)
  | Subscribe of bool     (** Toggle push events on this connection. *)
  | Drain                 (** Run every live job to completion. *)
  | Ping                  (** Liveness probe. *)
(** Request verbs understood by the daemon. *)

type request = { rid : int; sid : string option; at : float option; verb : verb }
(** A client request: [rid] is echoed in the response so clients can
    pipeline; [at] optionally advances the daemon's model clock to that
    time first (requests with no [at] happen "now").  [sid] is an
    optional client-chosen session id: a client that reconnects and
    resends under the same [(sid, rid)] pair is deduplicated by the
    backend, making retried mutations exactly-once (see
    {!Backend.handle}). *)

type error_code =
  | Bad_request           (** Unparseable or ill-typed payload. *)
  | Unknown_verb          (** Well-formed, but the verb is not ours. *)
  | Unsupported_version   (** ["v"] field present but not {!version}. *)
  | Overload              (** Admission control: queue depth exceeded. *)
  | Draining              (** Daemon is shutting down; no new work. *)
  | Unknown_job           (** No such job: a [job] query for an id that
                              is not live, or a [cancel] for an id never
                              admitted. *)
  | Timeout               (** Deadline elapsed (slow client / drain). *)
  | Internal              (** Daemon-side invariant failure. *)
(** Structured failure taxonomy carried by error replies. *)

val error_code_name : error_code -> string
(** Stable wire name of a code (kebab-case). *)

val error_code_of_name : string -> error_code option
(** Inverse of {!error_code_name}; [None] on unknown names. *)

type job_state = Queued | Running | Done | Cancelled
(** Lifecycle of a job.  Query replies view live jobs only, so the
    daemon sends [Queued] and [Running]; [Done] and [Cancelled] stay in
    the wire grammar for clients that decode them. *)

val job_state_name : job_state -> string
(** Stable wire name of a state. *)

val job_state_of_name : string -> job_state option
(** Inverse of {!job_state_name}; [None] on unknown names. *)

type job_view = {
  job : int;              (** Daemon-assigned id (dense from 0). *)
  state : job_state;
  procs : float;          (** Processors currently assigned. *)
  cache : float;          (** Cache fraction currently assigned. *)
  remaining : float;      (** Sequential work still to do. *)
  arrival : float;        (** Model time the job was admitted. *)
  finish : float option;  (** Completion time once [Done]. *)
}
(** Snapshot of one live job, as returned by [Query (Job _)] and
    [Query Allocs]. *)

type reply =
  | R_submitted of { job : int }
      (** Job admitted under this id. *)
  | R_cancelled of { job : int; was_live : bool }
      (** Cancel of an admitted id processed (and journalled);
          [was_live] is false if the job had already completed or been
          cancelled by the effective cancel time — the same answer
          before and after a restart. *)
  | R_job of job_view
      (** Answer to [Query (Job _)]. *)
  | R_stats of { time : float; clients : int; metrics : Online.Metrics.t }
      (** Answer to [Query Stats]: full service metrics including the
          warm/cold solver counters. *)
  | R_status of {
      time : float;
      live : int;           (** Jobs not yet finished. *)
      queued : int;         (** Live jobs with no processors. *)
      running : int;        (** Live jobs with processors. *)
      clients : int;        (** Connected clients. *)
      draining : bool;
      recovered : int;      (** Journal entries replayed at start-up. *)
      shed : bool;          (** Load-shed mode active (submits rejected
                                until the queue falls to the low-water
                                mark). *)
      snapshots : int;      (** Snapshots written since start-up. *)
    }
      (** Answer to [Query Status]. *)
  | R_allocs of { time : float; k : float option; jobs : job_view array }
      (** Answer to [Query Allocs]; [k] is the current makespan target
          of the equalizing solver (absent before the first solve). *)
  | R_subscribed of { on : bool }
      (** Subscription toggled. *)
  | R_drained of { time : float; completed : int }
      (** Drain finished at model time [time]. *)
  | R_pong
      (** Answer to [Ping]. *)
  | R_error of {
      code : error_code;
      message : string;
      retry_after : float option;
    }
      (** Any failure; the connection stays usable.  [retry_after] is a
          wall-clock hint in seconds on [Overload] errors — when to try
          the submit again. *)
(** Response bodies. *)

type response = { rid : int; epoch : int; reply : reply }
(** A response, tagged with the request's [rid] and the daemon's solve
    epoch (count of incremental re-solves) at reply time — clients can
    tell which allocation generation an answer reflects. *)

type push =
  | P_resolved of { time : float; epoch : int; k : float }
      (** The solver produced a new allocation with makespan target [k]. *)
  | P_completed of { time : float; job : int }
      (** A job ran to completion. *)
  | P_drained of { time : float }
      (** The daemon finished draining and is about to exit. *)
(** Unsolicited events sent to subscribed clients. *)

type incoming = Reply of response | Event of push
(** What a client can read off the socket: a response to one of its
    requests, or a push event. *)

val utf8_valid : string -> bool
(** Strict RFC 3629 check (rejects overlong forms, surrogates, values
    past U+10FFFF).  Decoders run it before JSON parsing so invalid
    bytes yield a structured [Bad_request], never an exception. *)

val encode_request : request -> string
(** One-line JSON payload for a request (no framing). *)

val decode_request : string -> (request, error_code * string) result
(** Parse a request payload.  Never raises: UTF-8 violations, JSON
    errors, missing or ill-typed fields map to [Bad_request]; a wrong
    ["v"] maps to [Unsupported_version]; an unrecognised verb to
    [Unknown_verb]. *)

val encode_response : response -> string
(** One-line JSON payload for a response (no framing).  Includes an
    ["ok"] boolean so shell clients can branch without matching the
    reply kind. *)

val encode_push : push -> string
(** One-line JSON payload for a push event (no framing). *)

val decode_incoming : string -> (incoming, error_code * string) result
(** Client-side parse of anything the daemon sends: payloads with an
    ["event"] field decode as {!Event}, everything else as {!Reply}.
    Same no-raise contract as {!decode_request}. *)
