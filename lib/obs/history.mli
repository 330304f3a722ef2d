(** Ledger time-series analytics: trends, sparklines and drift gates.

    [relaware obs diff] compares a run against {e one} baseline; a slow
    regression that moves a few percent per run walks straight through
    such pairwise gates.  This module looks at the last N ledger records
    instead: it extracts one series per QoR row (plus the standard health
    counters out of each record's stored metrics snapshot), renders
    terminal sparklines, and flags drift with a robust z-score — the
    candidate's deviation from the trailing window's median, scaled by
    1.4826 x the median absolute deviation (the MAD-consistent estimate
    of sigma).  Median/MAD rather than mean/stddev so one earlier outlier
    run cannot inflate the scale and mask real drift.

    Health counters (retries, repairs, corrupt cache hits, warnings) gate
    {e one-sided}: only an increase is drift — a run with
    fewer faults than usual is good news, not a regression. *)

val median : float array -> float
(** [nan] on an empty array; ignores NaN entries. *)

val mad : float array -> float
(** Median absolute deviation around {!median}; [nan] on empty input. *)

type verdict = {
  z : float;  (** robust z-score; [infinity] for a move off a flat window *)
  drifting : bool;
}

val drift :
  ?one_sided:bool -> z_thresh:float -> window:float array -> float -> verdict
(** [drift ~z_thresh ~window x] scores candidate [x] against the trailing
    [window].  A flat window (MAD ~ 0) uses a small relative tolerance:
    matching the median is fine, any real move is infinite z.  With
    [one_sided] (health counters), [x <= median] never drifts. *)

val sparkline : float array -> string
(** One block character per value, min..max scaled over eight levels;
    NaN renders as a space.  Empty input gives the empty string. *)

(** {2 Series extraction and gating over ledger records} *)

type row = {
  r_name : string;
  r_values : float array;  (** oldest first, one per record holding the row *)
  r_one_sided : bool;  (** health counter: gate increases only *)
}

val health_counters : string list
(** The counters both ledger gates watch one-sidedly: this module's drift
    gate and [relaware obs diff]. *)

val rows_of_records : Run_ledger.record list -> row list
(** One row per QoR name seen in the records (two-sided), plus one per
    {!health_counters} entry found in the stored metrics snapshots
    (one-sided), sorted by name.  Records lacking a row are skipped in
    that row's series. *)

type status = Pass | Drift | Short

type gated = {
  g_row : row;
  g_median : float;  (** of the trailing window (all but the last value) *)
  g_last : float;
  g_z : float;
  g_status : status;
      (** [Short]: window smaller than [min_window] — informational only *)
}

val gate : ?z_thresh:float -> ?min_window:int -> row -> gated
(** Score a row's newest value against its trailing window.
    [z_thresh] defaults to 4.0, [min_window] to 4. *)
