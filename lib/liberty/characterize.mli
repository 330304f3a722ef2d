(** Cell characterization: measuring NLDM tables under an aging scenario.

    The [Transient] backend reproduces the paper's HSPICE methodology: for
    every timing arc and every (input slew x output load) operating
    condition, the cell's transistor netlist — with every device aged
    according to the scenario — is simulated with {!Aging_spice.Engine} and
    the 50/50 delay and 20/80 output transition are measured.  Multi-stage
    cells (buffers, XOR, MUX, adders, flip-flops) are handled naturally
    because internal slopes are simulated, which is precisely what the paper
    faults closed-form approaches for missing.

    The [Analytic] backend is that faulted state-of-the-art: a closed-form
    switched-RC estimate from the output-stage drive resistance that cannot
    see internal slopes.  It exists for the ablation benchmark.

    {2 Failures}

    Every grid point is measured through a typed-result pipeline
    ({!point_error}) and retried up an escalation ladder of progressively
    more conservative solver settings.  A point rescued by a later rung is
    counted as retried in the {!report}; a point that fails every rung
    raises {!Point_failed}, naming the point and every rung's error.  No
    value that was not simulated ever enters a table, so a library either
    holds measured points only or is not built at all.

    {2 Parallelism}

    Characterization is embarrassingly parallel: every (cell, arc,
    direction) grid is independent.  {!library} takes a [jobs] count and
    puts every grid of the library on one flat work list over an
    {!Aging_util.Pool} of domains, claimed longest-first by a static cost
    (the cell's device count), so the multi-stage cells start early
    instead of holding up the end of the build.  The result is {e
    deterministic}: each grid runs its own sequential warm-start chain, and
    entries, tables, and the merged report are assembled in input order,
    never claim or completion order, so [library ~jobs:n] is bit-for-bit
    identical to [library ~jobs:1] for every [n] (the only exception being
    the wall-time fields of {!arc_stats}, which record measurements, not
    results).  [jobs] defaults to [1] (sequential); the CLI and benches
    default it to {!Aging_util.Pool.default_jobs}. *)

type point_error =
  | No_settle of float
      (** output never reached the target rail; carries the final voltage *)
  | No_crossing  (** no 50 % delay crossing was found *)
  | No_slew      (** no 20/80 output transition was found *)
  | Non_converged of int
      (** the solver accepted that many non-converged steps at the [dt]
          floor; the waveform is untrustworthy *)

val point_error_to_string : point_error -> string

type point_failure = {
  cell : string;
  from_pin : string;
  to_pin : string;
  dir : Library.direction;
  slew : float;
  load : float;
  rung_errors : point_error list;
      (** the error of every rung of the escalation ladder, in order *)
}

exception Point_failed of point_failure
(** A grid point that failed every rung of the escalation ladder.  The
    only way a point failure leaves this module, from {!library} and
    {!arc_measure} alike; a printer for it is registered with
    [Printexc]. *)

type backend =
  | Transient of Aging_spice.Engine.options
  | Analytic

val default_backend : backend
(** [Transient] with default engine options. *)

(** {2 Characterization report} *)

type arc_stats = {
  stat_cell : string;
  stat_from : string;
  stat_to : string;
  stat_dir : Library.direction;
  mutable measured : int;  (** points measured cleanly on the first attempt *)
  mutable retried : int;   (** points recovered by an escalated re-run *)
  mutable errors : point_error list;
      (** first error of every retried point, newest first *)
  mutable grid_seconds : float;  (** wall time of the whole grid *)
}

type report = { mutable stats : arc_stats list }
(** Per-(cell, arc, direction) accounting of one characterization run;
    [stats] is newest-first.  [measured] and [retried] partition the grid
    points, so their sum is the total point count. *)

val report_create : unit -> report

type totals = {
  points : int;     (** all grid points *)
  clean : int;      (** measured on the first attempt *)
  recovered : int;  (** needed at least one escalated retry *)
  degraded : int;
      (** always [0]: no point is ever filled by anything but a
          simulation.  Kept only because [perfbench/bench.ml] reads it. *)
}

val report_totals : report -> totals

val report_clean : report -> bool
(** [true] iff every point was measured on the first attempt. *)

val report_to_string : report -> string

(** {2 Characterization} *)

val library :
  ?backend:backend ->
  ?cells:Aging_cells.Cell.t list ->
  ?report:report ->
  ?jobs:int ->
  axes:Axes.t ->
  name:string ->
  scenario:Aging_physics.Scenario.t ->
  unit ->
  Library.t
(** Characterizes a whole library (default: the full catalog) under one
    scenario: full grids for every arc of every cell, every point
    simulated.  Entries carry bare cell names.  Pass [report] to
    collect the per-point accounting.  [jobs] (default 1) spreads the
    library's grids over that many domains (see {e Parallelism} above);
    the returned library and any [report] are identical for every [jobs]
    value and follow the order of [cells].
    @raise Point_failed when a point exhausts the escalation ladder; with
    several failing grids, the one first in work-list order, whatever
    [jobs] is. *)

val library_report :
  ?backend:backend ->
  ?cells:Aging_cells.Cell.t list ->
  ?jobs:int ->
  axes:Axes.t ->
  name:string ->
  scenario:Aging_physics.Scenario.t ->
  unit ->
  Library.t * report
(** [library] plus the retry accounting of the build. *)

val fresh_library :
  ?backend:backend -> ?cells:Aging_cells.Cell.t list -> ?jobs:int ->
  axes:Axes.t -> unit -> Library.t
(** Convenience: the degradation-unaware (initial) library — zero-duty
    corner, bare names. *)

val arc_measure :
  backend ->
  scenario:Aging_physics.Scenario.t ->
  cell:Aging_cells.Cell.t ->
  arc:Aging_cells.Cell.arc ->
  dir:Library.direction ->
  slew:float ->
  load:float ->
  float * float
(** Measures a single (delay, output slew) point; exposed for the Fig. 1
    surface experiment and for tests, through the same escalation ladder
    as a grid point.
    @raise Point_failed when the escalation ladder is exhausted. *)
