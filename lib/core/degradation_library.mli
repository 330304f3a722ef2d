(** Managed creation of degradation-aware cell libraries.

    This is the productized form of the paper's Sec. 4.1 flow: characterized
    libraries are produced on demand per aging corner, memoized in memory
    and optionally persisted to a cache directory as [.alib] files (the
    "publicly available libraries" artifact), so repeated analyses never
    re-run transistor-level simulation. *)

type t

val create :
  ?backend:Aging_liberty.Characterize.backend ->
  ?cells:Aging_cells.Cell.t list ->
  ?axes:Aging_liberty.Axes.t ->
  ?years:float ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?surrogate:Aging_liberty.Surrogate.config ->
  unit ->
  t
(** Defaults: transient backend, full catalog, the paper's 7x7 axes,
    10-year lifetime, no disk cache, sequential builds ([jobs = 1]).
    [jobs > 1] spreads each library build's grids over that many domains,
    with results identical to a sequential build.  [cache_dir] may be
    nested ("a/b/c"); missing parent directories are created on the first
    write.

    The in-memory library memo is an LRU of {!memo_cap} libraries keyed
    by the exact-lambda cache keys — a sweep over many corners must not
    grow without limit.  Eviction is safe:
    an evicted corner is re-served from the disk cache when [cache_dir]
    is set, or re-characterized.  Hits, misses and evictions land in
    the metrics registry as [cache.memo_hit] / [cache.memo_miss] /
    [cache.memo_evict].

    [surrogate] switches every corner build into
    {!Aging_liberty.Surrogate} mode.  The first surrogate build fully
    characterizes five fixed anchor corners (the duty-cycle extremes and
    the balanced center) under the plain cache keys; every requested
    corner is then built from a handful of seed simulations per grid plus
    ratio fits against the anchor tables.  The anchors are a function of
    the deglib configuration only (never of query order), and
    surrogate-built libraries are cached under keys extended with the
    anchored surrogate's {!Aging_liberty.Surrogate.digest}, so they never
    alias full builds. *)

val axes : t -> Aging_liberty.Axes.t
val years : t -> float

val memo_cap : int
(** Capacity of every manager's library memo: 256. *)

val memo_length : t -> int
(** Number of libraries currently memoized (always [<= memo_cap]). *)

val fingerprint : t -> string
(** The configuration fingerprint embedded in every cache key: a digest of
    a full canonical serialization of (cell names, all slew/load axis
    values, backend tag, lifetime, and a probe of the degradation model),
    so {e any} configuration change — including to the last axis point or
    the last cell — invalidates the disk cache.  Exposed for
    cache-sensitivity tests. *)

val build_reports : t -> (string * Aging_liberty.Characterize.report) list
(** Fault/repair accounting of every library this manager actually
    characterized (cache hits produce no report), newest first, keyed by
    the cache name.  Cache files are written atomically (temp file +
    rename) and a corrupt/unparseable cache file is treated as a miss: the
    library is rebuilt and the file rewritten. *)

val fresh : t -> Aging_liberty.Library.t
(** The degradation-unaware (initial) library. *)

val corner :
  ?mode:Aging_physics.Degradation.mode ->
  t ->
  Aging_physics.Scenario.corner ->
  Aging_liberty.Library.t
(** Single-corner degradation-aware library with bare cell names (what a
    static-stress timing run plugs in).  [mode] defaults to [Full];
    [Vth_only] reproduces the state-of-the-art analyses of Fig. 5(a). *)

val worst_case : ?mode:Aging_physics.Degradation.mode -> t -> Aging_liberty.Library.t
(** [corner t Scenario.worst_case]. *)

val complete :
  t -> Aging_physics.Scenario.corner list -> Aging_liberty.Library.t
(** Merged complete library with corner-indexed cell names
    ({!Aging_physics.Scenario.indexed_name}) restricted to the given
    corners, in corner then catalog order (use [Scenario.grid ()] for the
    full 121-corner artifact).  Each corner's entries are the
    {!corner} library of that corner, renamed: corners are built one after
    another, each through the memo and the disk cache, so a corner that
    is memoized or on disk is not characterized again.
    @raise Invalid_argument on an empty or duplicated corner list. *)

val single_opc :
  t -> Aging_physics.Scenario.corner -> Aging_liberty.Library.t
(** The single-operating-condition strawman of Fig. 5(b): every fresh arc
    table is scaled by the aged/fresh delay ratio measured at one OPC, the
    largest characterized slew and the smallest load (the pessimistic
    point used by prior work). *)
