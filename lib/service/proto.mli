(** The grading service's wire protocol: newline-delimited JSON.

    One request per line, one response line per request, in request
    order.  The grammar (DESIGN.md §9):

    {v
    request  := grade | stats | metrics | slowlog | shutdown
    grade    := { "op":"grade", "assignment":string, "source":string,
                  "id"?:string, "rid"?:string, "fuel"?:int,
                  "deadline_s"?:number, "with_tests"?:bool }
    stats    := { "op":"stats", "id"?:string }
    metrics  := { "op":"metrics", "id"?:string }
    slowlog  := { "op":"slowlog", "id"?:string }
    shutdown := { "op":"shutdown", "id"?:string }
    v}

    Unknown object fields are ignored (forward compatibility); a missing
    or ill-typed required field, malformed JSON, or an unknown ["op"]
    yields one [error] response line and the daemon keeps serving.

    [metrics] is the protocol's one non-JSON response: the reply is a
    Prometheus text-exposition block — several lines, terminated by a
    [# EOF] line (OpenMetrics convention) so a JSONL client knows where
    the block ends.  All other responses stay one JSON line each.  The
    [stats] fields and the [metrics] block are both rendered from the
    one metrics table ({!Metrics.table}); this module only wraps the
    [stats] envelope.

    The module is also the service's only JSON {e reader} — the rest of
    the repository only prints JSON — so the hand-rolled parser lives
    here, total over arbitrary bytes. *)

(** Parsed JSON value.  Numbers are kept as [float] (the grammar's only
    number type); [Num] carrying an integral value is accepted wherever
    an integer field is required. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Total recursive-descent parse of one JSON document; trailing
    non-whitespace is an error.  Error strings name the byte offset. *)

val member : string -> json -> json option
(** Object field lookup; [None] on non-objects too. *)

(** One request, as read off the wire. *)
type request =
  | Grade of {
      id : string option;  (** echoed back verbatim in the response *)
      rid : string option;
          (** client-supplied correlation id; the server mints one at
              admission when absent and telemetry is on *)
      assignment : string;  (** bundle id, see [jfeed assignments] *)
      source : string;  (** full Java submission text *)
      fuel : int option;  (** overrides the server's default budget *)
      deadline_s : float option;
      with_tests : bool option;  (** overrides the server default *)
    }
  | Stats of { id : string option }
  | Metrics of { id : string option }  (** Prometheus exposition *)
  | Slowlog of { id : string option }  (** N slowest grade requests *)
  | Shutdown of { id : string option }

val request_of_line :
  string -> (request, string option * string) result
(** Parse one request line.  [Error (id, message)] recovers the request
    id when the line was an object with a string ["id"], so the error
    response can still be correlated. *)

(** {2 Response lines}

    Builders return one complete JSON line (no trailing newline).
    Stable field order: [id] (when the request carried one), [op], then
    per-op payload. *)

val grade_response :
  ?id:string -> ?rid:string -> cached:bool -> fuel:int option -> string ->
  string
(** The final argument is the serialized {!Jfeed_robust.Outcome} object
    (spliced verbatim — cache hits replay the stored bytes, making the
    "equal key ⇒ byte-identical payload" contract trivial to audit).
    [fuel] reports fuel spent and appears only when the request ran
    under a finite fuel budget, mirroring the batch summary's
    byte-stable shape.  [rid] renders as ["rid":…] right after [id] —
    only when the request carried or was minted a correlation id, so an
    untelemetered daemon's responses stay byte-identical to the frozen
    goldens. *)

val overloaded_response :
  ?id:string -> ?rid:string -> ?reason:string -> unit -> string
(** Load shedding's refusal: one [op:"grade"] line carrying the marker
    field ["rejected":"overloaded"] and a rejected Outcome with
    [stage:"admission"] in the result slot, so clients that only parse
    grade responses still get a total answer.  The optional [reason]
    replaces the default ["admission queue full; retry later"] (the
    queue-wait deadline path says so instead).  Shed responses are
    never cached and never enter the outcome taxonomy — they are
    counted by the [admission.shed] counter alone. *)

val stats_response : ?id:string -> string -> string
(** The [stats] envelope around {!Metrics.stats}'s comma-separated
    fields. *)

(** One slowlog entry: a slow grade request with its per-stage
    breakdown, stage names from {!Jfeed_trace.Trace.rollup} ([parse],
    [epdg], [match], [pairing], [interp], [tests], [analysis]…),
    milliseconds each. *)
type slow_entry = {
  s_rid : string option;
      (** correlation id, leading the entry as ["rid":…] when present *)
  s_assignment : string;
  s_ms : float;  (** total service time *)
  s_outcome : string;  (** taxonomy class *)
  s_stages : (string * float) list;  (** stage → total ms, rollup order *)
}

val slowlog_response : ?id:string -> slow_entry list -> string
(** [{"op":"slowlog","n":…,"slowest":[{"assignment":…,"ms":…,
    "outcome":…,"stages":{…}},…]}], slowest first; all times [%.3g]. *)

val shutdown_response : ?id:string -> unit -> string

val error_response : ?id:string -> ?rid:string -> string -> string
