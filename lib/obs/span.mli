(** Hierarchical timed spans.

    [with_ "characterize.arc" ~attrs:[("cell", "NAND2_X1")] f] times [f],
    records its nesting relative to enclosing spans, and captures the
    outcome — including an exception raised by [f], which closes the span
    (outcome [Raised]) before re-raising, so the span stack can never be
    left unbalanced.

    When {!set_recording} is on, the span tree (name, attributes, start
    time, duration, outcome, children) is kept for export via {!roots} /
    {!span_to_json}; it is the only record of span time, and
    {!Profile.of_spans} computes counts, totals and percentiles from it.
    Recording is off by default; the CLI's [--ledger] and the bench harness
    switch it on.  With recording off a span costs two clock reads and a
    push and pop of the domain-local frame stack.  Completed child spans
    are capped (100k) to bound memory on huge builds — the cap drops
    children, never top-level spans, and {!dropped} reports the loss.

    The open-frame stack is per-domain (via {!Domain.DLS}): spans opened on
    a pool worker nest under that worker's own frames, and a span that
    completes with an empty domain-local stack is recorded as a top-level
    root (the shared root list and both counters are synchronized).  So in
    a parallel characterization the per-arc spans of worker domains appear
    as additional roots rather than children of the spawning domain's
    span. *)

type outcome = Completed | Raised of string

type t = {
  name : string;
  attrs : (string * string) list;
  t_start : float;  (** seconds, Unix epoch (display timestamp) *)
  duration : float; (** seconds, measured on the monotonic clock *)
  outcome : outcome;
  children : t list;  (** completed sub-spans, oldest first *)
}

val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Runs the function inside a span named [name] (convention:
    [subsystem.operation]). *)

val set_recording : bool -> unit
val recording : unit -> bool

val roots : unit -> t list
(** Completed top-level spans, oldest first. *)

val dropped : unit -> int
(** Child spans discarded because the recording cap was reached. *)

val reset : unit -> unit
(** Clears recorded spans and the drop counter (not the recording flag). *)

val span_to_json : t -> Json.t
(** The encoding of one span tree, children nested; {!of_json} is its
    inverse. *)

val now : unit -> float
(** Wall clock, seconds since the Unix epoch — the timebase of [t_start]
    and of displayed timestamps.  Not suitable for measuring durations:
    an NTP step moves it. *)

val elapsed : unit -> float
(** Monotonic clock, seconds since an arbitrary process-local origin
    (CLOCK_MONOTONIC).  This is the timebase span durations are measured
    on; subtract two readings to time an interval that survives wall-clock
    adjustments. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!span_to_json}.  [Error msg] names the first malformed
    field. *)
