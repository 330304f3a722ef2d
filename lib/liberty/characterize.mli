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

    {2 Fault tolerance}

    A library build runs thousands of per-point transients, and a single
    non-settling grid point must never abort the build.  Every grid point is
    measured through a typed-result pipeline ({!point_error}), retried up an
    escalation ladder of progressively more conservative solver settings,
    and — when every rung fails — repaired from already-measured neighbour
    grid points or from the analytic model.  Every deviation from a clean
    first-attempt measurement is recorded in a {!report} that callers can
    print and tests can assert on.  The [Faulty] backend wrapper injects
    deterministic point failures so that machinery can be exercised end to
    end.

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

type fault = {
  rate : float;  (** fraction of grid points sabotaged, in [0, 1] *)
  seed : int;    (** decorrelates which points fail *)
  depth : int;
      (** how many rungs of the escalation ladder fail for a sabotaged
          point: [1] exercises retry-recovery, [max_int] forces the
          degraded fallbacks *)
}

type backend =
  | Transient of Aging_spice.Engine.options
  | Analytic
  | Faulty of fault * backend
      (** deterministic fault-injection wrapper around another backend *)

val default_backend : backend
(** [Transient] with default engine options. *)

(** {2 Surrogate mode}

    Passing [surrogate] (a {!Surrogate.t}, built from fully simulated
    anchor libraries by {!Degradation_library}) hands every (slew x load)
    grid to {!Surrogate.grid}: a sparse seed lattice is simulated, the
    remaining points are served by a ratio model against the anchors where
    it is trusted, and simulated otherwise — in full-sweep order, through
    the same retry and repair machinery.  Each point's provenance lands in
    its {!arc_stats}. *)

(** {2 Characterization report} *)

type repair = Interpolated | Analytic_fallback

type prov = Surrogate.prov = Seeded | Predicted | Fell_back
(** Provenance of one grid point in a surrogate build. *)

type arc_stats = {
  stat_cell : string;
  stat_from : string;
  stat_to : string;
  stat_dir : Library.direction;
  mutable measured : int;  (** points measured cleanly on the first attempt *)
  mutable retried : int;   (** points recovered by an escalated re-run *)
  mutable repaired : int;  (** points filled by a degraded fallback *)
  mutable failed : int;    (** points lost entirely (never with fallbacks) *)
  mutable predicted : int; (** points served by the surrogate model *)
  mutable repairs : repair list;      (** one entry per repaired point *)
  mutable errors : point_error list;
      (** first error of every non-clean point, newest first *)
  mutable prov : prov array array option;
      (** per-point provenance (slew-major), surrogate builds only *)
  mutable sim_seconds : float;
      (** wall time spent inside point simulations of this grid *)
  mutable grid_seconds : float;  (** wall time of the whole grid *)
}

type report = { mutable stats : arc_stats list }
(** Per-(cell, arc, direction) accounting of one characterization run;
    [stats] is newest-first.  The five counters partition the grid
    points, so their sum is the total point count. *)

val report_create : unit -> report

type totals = {
  points : int;     (** all grid points *)
  clean : int;      (** measured on the first attempt *)
  recovered : int;  (** needed at least one escalated retry *)
  degraded : int;   (** repaired by interpolation or the analytic model *)
  lost : int;       (** failed outright *)
  guessed : int;    (** served by the surrogate model *)
}

val report_totals : report -> totals

val report_clean : report -> bool
(** [true] iff every point was measured on the first attempt. *)

type surrogate_totals = {
  fit_simulated : int;  (** seed simulations *)
  fit_predicted : int;  (** points served by the model *)
  fit_fallback : int;   (** low-confidence points re-simulated *)
  fit_speedup : float;
      (** estimated build speedup: measured mean simulation cost
          extrapolated to the full grid, over the actual wall time *)
}

val report_surrogate : report -> surrogate_totals option
(** Surrogate accounting of the report; [None] when no grid in it was
    built in surrogate mode. *)

val report_to_string : report -> string

(** {2 Characterization} *)

val library :
  ?backend:backend ->
  ?cells:Aging_cells.Cell.t list ->
  ?report:report ->
  ?jobs:int ->
  ?surrogate:Surrogate.t ->
  axes:Axes.t ->
  name:string ->
  scenario:Aging_physics.Scenario.t ->
  unit ->
  Library.t
(** Characterizes a whole library (default: the full catalog) under one
    scenario.  Always returns a complete library: full grids for every arc
    of every cell, with failed points repaired (see the module docs).
    Entries carry bare cell names.  Pass [report] to
    collect the per-point accounting.  [jobs] (default 1) spreads the
    library's grids over that many domains (see {e Parallelism} above);
    the returned library and any [report] are identical for every [jobs]
    value and follow the order of [cells]. *)

val library_report :
  ?backend:backend ->
  ?cells:Aging_cells.Cell.t list ->
  ?jobs:int ->
  ?surrogate:Surrogate.t ->
  axes:Axes.t ->
  name:string ->
  scenario:Aging_physics.Scenario.t ->
  unit ->
  Library.t * report
(** [library] plus the fault/repair accounting of the build. *)

val fresh_library :
  ?backend:backend -> ?cells:Aging_cells.Cell.t list -> ?jobs:int ->
  ?surrogate:Surrogate.t -> axes:Axes.t -> unit -> Library.t
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
    surface experiment and for tests.  This is the legacy entry point: the
    escalation ladder still applies, but a point whose every attempt fails
    raises.
    @raise Failure when the full escalation ladder is exhausted. *)
