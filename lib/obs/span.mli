(** Hierarchical timed spans.

    [with_ "characterize.arc" ~attrs:[("cell", "NAND2_X1")] f] times [f],
    records its nesting relative to enclosing spans, and captures the
    outcome — including an exception raised by [f], which closes the span
    (outcome [Raised]) before re-raising, so the span stack can never be
    left unbalanced.

    Two products come out of every span, at different costs:

    - Always: the duration is observed into the metrics histogram
      ["span.<name>"] (and a raise bumps ["span.<name>.errors"]).  This is
      cheap — two clock reads and a hashtable lookup — so instrumenting hot
      paths is fine.
    - When {!set_recording} is on: the full span tree (name, attributes,
      start time, duration, outcome, children) is kept for export via
      {!roots} / {!to_json}.  Recording is off by default; the CLI's
      [--trace] and the bench harness switch it on.  Completed child spans
      are capped (100k) to bound memory on huge builds — the cap drops
      children, never top-level spans, and {!dropped} reports the loss.

    The open-frame stack is per-domain (via {!Domain.DLS}): spans opened on
    a pool worker nest under that worker's own frames, and a span that
    completes with an empty domain-local stack is recorded as a top-level
    root (the shared root list and both counters are synchronized).  So in
    a parallel characterization the per-arc spans of worker domains appear
    as additional roots rather than children of the spawning domain's
    span — timing histograms are unaffected. *)

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

val to_json : unit -> Json.t
(** [{"spans": [...], "dropped": n}] with children nested. *)

val span_to_json : t -> Json.t
(** The encoding of one span tree (an element of [to_json]'s ["spans"]
    list); {!of_json} is its inverse. *)

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
(** Inverse of the per-span encoding used by {!to_json} (one element of
    its ["spans"] list).  [Error msg] names the first malformed field. *)
