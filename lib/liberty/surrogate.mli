(** Error-bounded surrogate characterization against anchor libraries.

    A surrogate build simulates only a sparse deterministic seed lattice of
    each (slew x load) grid and serves the remaining points from a model
    fitted on those seeds.  The model is a multi-fidelity {e ratio}: the
    anchor library nearest the target corner is the reference, a
    low-degree {!Aging_fit.Ridge} surface over (log slew, load) is fitted
    on the seeds' target/reference ratios, and a prediction is the fitted
    ratio times the reference value.  Aging scales a timing surface far
    more smoothly than it shapes it, so the sharp (slew, load) structure
    cancels in the ratio.

    Each point is served only when two gates pass: the model's relative
    prediction interval is within [tol], and a replayed-anchor certificate
    — the same scheme re-run at the two anchors nearest the target, scored
    against their full tables — also stayed within [tol] there.  Every
    other point falls back to a real simulation.  Certificates depend only
    on (model, reference anchor, held-out anchor), so they are memoized in
    [t] and shared by every corner build that uses it (the
    [fit.certs.reused] counter). *)

type config

val config : ?tol:float -> ?sample:int -> unit -> config
(** Defaults: [tol = 0.02] (2 % relative interval), [sample = 12] seed
    simulations per grid.  A non-positive [tol] admits no prediction.
    @raise Invalid_argument if [sample < 4] or [tol] is not finite. *)

type t
(** A config bound to its anchor libraries and certificate memo.  Only
    anchors make a surrogate, so a build either fits against them or runs
    the plain sweep. *)

val create : config -> anchors:(Aging_physics.Scenario.t * Library.t) list -> t
(** [anchors] are fully simulated libraries at fixed corners, on the same
    axes as the grids the surrogate will serve.  Their order is kept: it
    breaks ties between equidistant anchors. *)

val digest : t -> string
(** Hex digest of [tol], [sample] and every anchor table (lossless float
    print), computed once by {!create}.  Cache keys of surrogate-built
    libraries include it, so they never alias a full build, another
    tolerance or other anchors. *)

type prov = Seeded | Predicted | Fell_back
(** Provenance of one grid point: simulated as a seed, served by the
    model, or simulated because the model was not trusted there. *)

val grid :
  t ->
  scenario:Aging_physics.Scenario.t ->
  cell:string ->
  from_pin:string ->
  to_pin:string ->
  dir:Library.direction ->
  axes:Axes.t ->
  delays:float array array ->
  slews:float array array ->
  simulate:(int -> int -> bool) ->
  prov array array
(** Fills one grid of the arc [from_pin -> to_pin] of [cell] with output
    [dir].  [simulate i j] measures point [(i, j)] into [delays] and
    [slews] (slew-major) and tells whether it succeeded; it is called in
    the row-major order of a full sweep, seeds first.  Served points are
    written into [delays] and [slews] directly.

    With [tol <= 0], fewer than 8 grid points, or no usable anchor tables
    for the arc (missing, on other axes, or all at one corner), every
    point is simulated in plain sweep order and reported [Fell_back]. *)
