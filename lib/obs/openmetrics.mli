(** Prometheus/OpenMetrics text exposition of the metrics registry.

    Renders a {!Metrics.snapshot} — counters, gauges and log-bucket
    histograms — as OpenMetrics text: sanitized metric names with
    [# HELP]/[# TYPE] headers, [_total]-suffixed counter samples,
    histograms as cumulative [le]-labelled buckets plus [_sum]/[_count],
    and a closing [# EOF].  This is what [relaware obs export --format
    openmetrics] emits for a stored ledger record, so any Prometheus can
    ingest an archived run.

    The module also ships a small parser for the same format ({!parse}),
    used by the tests to validate an exposition end to end (names legal,
    buckets cumulative and monotone) without external tooling. *)

val sanitize_name : string -> string
(** Map a dotted metric name onto the OpenMetrics charset
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: every illegal character becomes ['_'] and
    a leading digit gains a ['_'] prefix (["lib.cells.p99"] ->
    ["lib_cells_p99"]). *)

val escape_label_value : string -> string
(** Escape a label value for exposition: backslash, double quote and
    newline gain a backslash ([\n] renders as backslash-n). *)

val render_snapshot : (string * Metrics.value) list -> string
(** Full exposition of a snapshot, terminated by [# EOF].  The HELP line
    carries the original dotted name, which survives sanitization
    losslessly for consumers that care. *)

val values_of_stored_json : Json.t -> ((string * Metrics.value) list, string) result
(** Recover a snapshot from the {!Metrics.to_json} encoding (the shape
    stored in ledger records' [metrics] field).  Elided empty buckets are
    fine — they do not change the cumulative series. *)

val render_stored : Json.t -> (string, string) result
(** [render_snapshot] over {!values_of_stored_json}. *)

(** {2 Parsing (for exposition validation)} *)

type sample = {
  s_name : string;  (** sample name as exposed, e.g. ["lib_cells_total"] *)
  s_labels : (string * string) list;  (** unescaped label values *)
  s_value : float;
}

val parse : string -> (sample list, string) result
(** Parse an exposition: comment lines are skipped, every sample line
    must be [name[{labels}] value], and the final non-blank line must be
    [# EOF].  [Error] carries the offending line. *)

val find : sample list -> ?labels:(string * string) list -> string -> float option
(** First sample with that name whose labels include all of [labels]. *)
