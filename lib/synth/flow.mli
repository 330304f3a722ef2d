(** The complete synthesis flow (the stand-in for Design Compiler's
    [compile_ultra] with performance objective).

    [compile] runs: technology decomposition -> delay-oriented mapping
    against the target library -> high-fanout buffering -> greedy
    drive-strength sizing.  The target library is the only aging-related
    input: synthesizing with the degradation-aware (worst-case) library
    yields the paper's aging-optimized netlists, synthesizing with the
    initial library yields the traditional baseline (Sec. 4.3). *)

type options = {
  sizing_passes : int;
  map_rounds : int;
      (** mapping rounds; rounds after the first re-map at the measured
          slews/loads of the previous implementation *)
  slew_aware : bool;
      (** handed to {!Mapper.map}; false only for the slew-blind ablation *)
}

val default_options : options
(** 12 sizing passes, 2 mapping rounds, slew-aware.  The rest of the flow
    is fixed: fanout buffered to at most 16 pins, max-transition repair at
    250 ps, default STA conditions. *)

val compile :
  ?options:options ->
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  Aging_netlist.Netlist.t
(** Re-synthesizes the netlist against [library].  The result is
    functionally equivalent to the input (same ports, same flip-flop
    instances). *)

val min_period :
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  float
(** Convenience: critical period of a netlist under a library. *)
