(** Guardband estimation (paper Sec. 4.2 and the Fig. 5 comparisons).

    The guardband of a netlist is the extra period an aged design needs on
    top of its fresh critical period:
    [guardband = min_period(aged) - min_period(fresh)]. *)

type estimate = {
  fresh_period : float;  (** [s] *)
  aged_period : float;   (** [s] *)
  guardband : float;     (** [aged_period - fresh_period] *)
}

val static :
  ?mode:Aging_physics.Degradation.mode ->
  deglib:Degradation_library.t ->
  corner:Aging_physics.Scenario.corner ->
  Aging_netlist.Netlist.t ->
  estimate
(** Static aging stress: all transistors at the corner duty cycles.
    [mode = Vth_only] reproduces prior work that ignores mobility
    degradation (Fig. 5a). *)

val single_opc :
  deglib:Degradation_library.t ->
  corner:Aging_physics.Scenario.corner ->
  Aging_netlist.Netlist.t ->
  estimate
(** Prior-work strawman for Fig. 5(b): aging applied as a single-OPC delay
    ratio per cell. *)

val initial_cp_only :
  deglib:Degradation_library.t ->
  corner:Aging_physics.Scenario.corner ->
  Aging_netlist.Netlist.t ->
  estimate
(** Prior-work strawman for Fig. 5(c): only the initially-critical path is
    re-timed under aging, missing critical-path switching.  [aged_period]
    is the re-timed delay of the fresh critical path. *)

val dynamic :
  ?cycles:int ->
  deglib:Degradation_library.t ->
  stimulus:(int -> (string * bool) list) ->
  Aging_netlist.Netlist.t ->
  estimate * Aging_netlist.Netlist.t
(** Dynamic aging stress under a workload: simulate [cycles] (default 2000)
    to extract per-transistor duty cycles, annotate the netlist with
    snapped corners, characterize the needed slices of the complete library
    and re-time.  Also returns the annotated netlist. *)
