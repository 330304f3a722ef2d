(** Timing-driven drive-strength selection.

    Greedy critical-path sizing: instances on the worst paths are tried at
    every drive variant the target library offers for their family, keeping
    a change whenever the full-design minimum period improves.  Each
    trial is re-timed incrementally ({!Aging_sta.Timing.Incremental}), with
    the same result as a complete STA pass against the target library, so
    handing an aged library here sizes against aged delays. *)

val resize :
  ?passes:int ->
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  Aging_netlist.Netlist.t
(** Defaults: [passes = 10]; at most 250 trial swaps per pass.  Stops early when a pass finds no improving move. *)

val variant_sweep :
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  Aging_netlist.Netlist.t
(** Global gate selection at measured operating conditions: every
    combinational instance is swapped to the family variant whose worst arc
    delay at the instance's measured (input slew, output load) — plus a
    penalty for the extra input capacitance it presents to its driver — is
    smallest.  One STA pass scores a whole round, so the sweep scales to
    large designs; a round is kept only if the design's minimum period does
    not degrade.  Against a degradation-aware library this is precisely the
    paper's "select the most suitable gate/cell for each OPC" (Sec. 4.3).
    At most 3 rounds. *)
