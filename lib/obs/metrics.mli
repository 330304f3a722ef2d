(** Process-global metrics registry: counters and gauges.

    Every metric is identified by a dotted name ([subsystem.quantity], e.g.
    ["engine.steps"], ["cache.corrupt"]).  Handles are get-or-create — the
    first call registers the metric, later calls (anywhere in the process)
    return the same storage — so instrumented modules can create their
    handles at initialization and hot paths pay a single unboxed field
    update per event.

    The registry is process-global on purpose: a characterization build
    fans out through engine, retry, cache and STA layers that share no
    state, and the whole point is one place where "how many solver steps
    did this run take" can be answered afterwards.  {!to_json} serializes
    a consistent snapshot; {!reset} zeroes all registered metrics in place
    (handles stay valid), which tests use to isolate their deltas.

    Durations are not metrics: they live in the recorded span tree
    ({!Span}), from which {!Profile} computes exact percentiles.

    Every operation is domain-safe: counters and gauges are single atomic
    words (an [incr] is one lock-free fetch-and-add, cheap enough for the
    solver's per-step counters), and registration/snapshot/reset serialize
    on a registry mutex — so the parallel characterization pool
    ({!Aging_util.Pool}) can drive shared handles from every worker domain
    and a dump still equals the sum of all workers' events. *)

type counter
type gauge

val counter : string -> counter
(** Get-or-create.  @raise Invalid_argument if the name is already
    registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Snapshot and export} *)

type value = Counter_value of int | Gauge_value of float

val value_by_name : string -> float option
(** Numeric read of one metric {e without} creating it: a counter's count
    or a gauge's value; [None] if the name was never registered.  QoR
    exporters (the perf benchmark's counter deltas) use it so that probing
    a metric cannot pollute the registry. *)

val snapshot : unit -> (string * value) list
(** All registered metrics, sorted by name. *)

val to_json : unit -> Json.t
(** Object keyed by metric name; each value carries a ["type"] tag and its
    ["value"]. *)

val reset : unit -> unit
(** Zeroes every registered metric in place.  Handles held by instrumented
    modules remain valid (and registered) — this clears values, not the
    registry. *)
