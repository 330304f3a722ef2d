(** Leveled logging.

    Log lines go to stderr as [[+offset][level][subsystem] message] — the
    leading [+seconds.millis] is the monotonic offset since process start,
    on the same clock as span durations, so stderr can be correlated with
    trace dumps.  A library build can narrate progress without polluting
    stdout reports, and [-q] can silence it wholesale.  The level comes
    from the [AGING_LOG] environment variable (["debug"], ["info"],
    ["warn"], ["quiet"]; default ["info"]) and can be overridden
    programmatically (the CLI maps [--verbose] to [Debug] and [-q] to
    [Quiet]).

    Emitted warnings are also counted in the metrics registry
    (["log.warnings"]), so a metrics dump reveals whether a run warned even
    when the text output is gone. *)

type level = Debug | Info | Warn | Quiet

val set_level : level -> unit
val level : unit -> level

val level_of_string : string -> level option
(** ["debug" | "info" | "warn" | "quiet"] (case-insensitive). *)

val enabled : level -> bool
(** Would a message at this level currently print? *)

val debugf : string -> ('a, unit, string, unit) format4 -> 'a
(** [debugf sub fmt ...] logs at debug level under subsystem tag [sub]. *)

val infof : string -> ('a, unit, string, unit) format4 -> 'a
val warnf : string -> ('a, unit, string, unit) format4 -> 'a
