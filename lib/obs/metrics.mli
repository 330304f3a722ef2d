(** Process-global metrics registry: counters, gauges and histograms.

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

    Every operation is domain-safe: counters and gauges are single atomic
    words (an [incr] is one lock-free fetch-and-add, cheap enough for the
    solver's per-step counters), histogram observations take a
    per-histogram mutex, and registration/snapshot/reset serialize on a
    registry mutex — so the parallel characterization pool
    ({!Aging_util.Pool}) can drive shared handles from every worker domain
    and a dump still equals the sum of all workers' events. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get-or-create.  @raise Invalid_argument if the name is already
    registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?bounds:float array -> string -> histogram
(** Get-or-create; [bounds] are ascending bucket upper bounds (an overflow
    bucket is implicit).  The default is fixed log-scale buckets in
    half-decade steps from 1 ns to ~3000 s, sized for wall-time
    observations in seconds.
    @raise Invalid_argument on non-ascending bounds or a kind conflict. *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int
(** Number of observations. *)

val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** (upper bound, count) per bucket, ascending; the final pair has bound
    [infinity] (the overflow bucket).  Counts are per-bucket, not
    cumulative. *)

val percentile_of_buckets : (float * int) list -> float -> float
(** [percentile_of_buckets buckets q] approximates the [q]-quantile
    ([q] clamped to [0,1]) of the observations summarized by a
    {!bucket_counts}-shaped list.  Within the bucket holding the requested
    rank the value interpolates geometrically (linear in log space —
    exact for log-uniform values in a log-spaced bucket); the first bucket
    interpolates linearly from 0 and the overflow bucket returns its
    finite lower bound.  [nan] when the buckets are empty. *)

val approx_percentile : histogram -> float -> float
(** [approx_percentile h q] is {!percentile_of_buckets} over [h]'s live
    buckets: an approximate quantile whose error is bounded by the bucket
    width (a factor of sqrt(10) for the default half-decade bounds). *)

(** {2 Snapshot and export} *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

and histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float * int) list;  (** as {!bucket_counts} *)
}

val value_by_name : string -> float option
(** Numeric read of one metric {e without} creating it: a counter's count,
    a gauge's value, a histogram's observation count; [None] if the name
    was never registered.  QoR exporters (the perf benchmark's counter
    deltas) use it so that probing a metric cannot pollute the
    registry. *)

val snapshot : unit -> (string * value) list
(** All registered metrics, sorted by name. *)

val to_json : unit -> Json.t
(** Object keyed by metric name; each value carries a ["type"] tag and its
    data.  Histogram overflow bounds serialize as the string ["+Inf"]. *)

val buckets_of_json : Json.t -> (float * int) list option
(** Recovers the bucket list from one histogram entry of a {!to_json}
    export (the value object keyed by the metric name), so percentiles can
    be computed from stored snapshots.  [None] if the entry is not a
    well-formed histogram encoding.  Note: empty buckets are elided by the
    export, which does not change any quantile. *)

val reset : unit -> unit
(** Zeroes every registered metric in place.  Handles held by instrumented
    modules remain valid (and registered) — this clears values, not the
    registry. *)
