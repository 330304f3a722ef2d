(** Max-transition repair against the target library.

    Nets whose transition time (as reported by STA {e against the target
    library}) exceeds a limit get their driver upsized, or a buffer
    inserted when the driver is already at the strongest available drive.
    Because aged libraries report larger transitions — and aged cell delays
    are far more slew-sensitive (Fig. 1) — running this pass against a
    degradation-aware library repairs precisely the spots where aging
    hurts, while the same pass against the fresh library leaves them
    untouched.  This mirrors how an unmodified synthesis tool's
    max_transition fixing becomes an aging optimization once it is fed the
    degradation-aware library. *)

val repair :
  ?slew_limit:float ->
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  Aging_netlist.Netlist.t
(** Default [slew_limit = 100 ps]; at most 5 repair iterations.  Keeps a
    change only if it does not worsen the design's minimum period. *)
