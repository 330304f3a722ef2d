(** Persistent, append-only run records ("the ledger").

    Telemetry (metrics, spans, logs) evaporates when the process exits;
    the ledger is the durable artifact: every [relaware] subcommand and
    every bench scenario can append one self-contained, schema-versioned
    JSON record — command line, git revision, wall time, outcome, the full
    metrics snapshot, recorded span roots, and domain QoR numbers
    (guardbands, periods, library delay statistics) — to
    [DIR/ledger.jsonl].  Records are diffable across commits
    ([relaware obs diff]), renderable as profiles ([obs report]) and
    exportable as Chrome traces ([obs trace]).

    Writes are a single [write(2)] on an [O_APPEND] descriptor, so
    concurrent writers interleave at whole-record granularity; the loader
    skips (and warns about) an unparseable trailing line rather than
    failing the read.

    Non-finite floats (a NaN duration, an infinite QoR) are not JSON; the
    ledger serializes them {e deterministically} as the strings ["NaN"],
    ["Infinity"] and ["-Infinity"] and maps them back on load, so a
    pathological run is still recorded instead of crashing the dump. *)

val schema_version : int
(** Version written into every record; the loader rejects records from a
    {e newer} schema (older ones must stay loadable). *)

type outcome = Finished | Failed of string

type record = {
  version : int;
  id : string;  (** 12 hex chars, unique per append *)
  tool : string;  (** producing binary, e.g. ["relaware"] or ["bench"] *)
  subcommand : string;
  argv : string list;
  git_rev : string option;  (** HEAD commit, when run inside a repository *)
  started_at : float;  (** Unix epoch [s] *)
  wall_s : float;  (** monotonic wall time of the run [s] *)
  outcome : outcome;
  qor : (string * float) list;  (** domain quality-of-result numbers *)
  notes : (string * Json.t) list;  (** free-form extras (jobs, config) *)
  metrics : Json.t;  (** full {!Metrics.to_json} snapshot *)
  spans : Span.t list;  (** recorded span roots *)
  dropped_spans : int;
}

(** {2 QoR notes}

    Process-global accumulators in the {!Metrics} registry idiom: code
    deep in a flow notes a QoR number as it is computed, and the next
    {!capture} drains everything noted since the previous capture into the
    record.  Safe from any domain. *)

val note_qor : string -> float -> unit
(** [note_qor "guardband_ps" v] — last write per name wins. *)

val note : string -> Json.t -> unit
(** Free-form note ([jobs], configuration echoes, ...). *)

(** {2 Record lifecycle} *)

val capture :
  tool:string ->
  subcommand:string ->
  ?argv:string list ->
  ?outcome:outcome ->
  ?spans:Span.t list ->
  started_at:float ->
  wall_s:float ->
  unit ->
  record
(** Snapshot the process telemetry into a record: drains the QoR/note
    accumulators, sets the [runtime.gc.*] / [runtime.mem.*] gauges from
    one {!Runtime.totals} read, snapshots {!Metrics.to_json}, takes
    {!Span.roots} (unless [spans] overrides, e.g. one bench scenario's
    root), resolves the git revision, and mints a fresh [id].  [argv] defaults to
    [Sys.argv]. *)

val append : dir:string -> record -> string
(** Appends one record as a single JSON line to [dir/ledger.jsonl]
    (creating [dir] as needed) and returns the ledger path.  Safe under
    concurrent appenders. *)

val path : dir:string -> string
(** [dir/ledger.jsonl]. *)

val load : dir:string -> (record list, string) result
(** All parseable records, oldest first.  Corrupt lines are skipped with a
    warning; a missing ledger file is an [Error]. *)

val select : record list -> string -> (record, string) result
(** Resolve a RUN selector: an integer index ([0] oldest, [-1] newest) or
    a unique [id] prefix.  An in-range index wins; an all-digit selector
    that is out of range as an index (ids are random hex, so a prefix can
    be purely numeric) is retried as an id prefix. *)

val to_json : record -> Json.t
val of_json : Json.t -> (record, string) result

(** {2 Non-finite float convention} *)

val json_of_float : float -> Json.t
(** Finite floats encode as numbers; [nan]/[infinity]/[neg_infinity] as
    the strings ["NaN"]/["Infinity"]/["-Infinity"]. *)

val float_of_json : Json.t -> float option
(** Inverse of {!json_of_float}; also accepts plain JSON numbers. *)

val git_rev_opt : unit -> string option
(** Best-effort HEAD commit hash (walks up from the cwd to [.git/HEAD],
    following one level of ref indirection); [None] outside a repo. *)
