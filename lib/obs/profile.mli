(** Inclusive/self-time profiles aggregated from recorded span trees.

    One row per distinct span name: call count, total (inclusive) time,
    self time (inclusive minus direct children — unclamped, so self times
    telescope and their sum over a tree equals the root's duration
    exactly), and the p50/p95 of the name's durations. *)

type row = {
  name : string;
  count : int;
  total_s : float;  (** inclusive seconds *)
  self_s : float;   (** exclusive seconds (can be marginally negative) *)
  p50_s : float;    (** {!Aging_util.Stats.percentile} 50 of the durations *)
  p95_s : float;    (** {!Aging_util.Stats.percentile} 95 of the durations *)
}

val of_spans : Span.t list -> row list
(** Aggregate the given trees; rows sorted by self time, largest first.
    The percentiles are exact: they interpolate between the recorded
    durations, so neither exceeds the largest one. *)

val total_self : row list -> float
(** Sum of self times — equals {!total_roots} of the profiled trees. *)

val total_roots : Span.t list -> float
(** Sum of the root durations. *)

val to_table : ?top:int -> row list -> string
(** Render via {!Aging_util.Tablefmt}; [top] truncates to the hottest N
    rows (0 = all).  The [self%] column is relative to the whole profile,
    not the shown subset. *)
