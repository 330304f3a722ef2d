(** Delay-oriented technology mapping (DP tree covering).

    Library cells are turned into NAND2/INV patterns (via the same
    decompositions as {!Decompose}); the subject graph is covered bottom-up,
    choosing at every node the match that minimizes the estimated arrival
    time.  Delay estimates come from the target library's NLDM tables — so
    handing the mapper a degradation-aware library makes every covering
    decision aging-conscious, which is exactly how the paper retrofits aging
    optimization into an unmodified synthesis flow (Sec. 4.3). *)

type hints = {
  node_slew : float array;   (** measured transition per subject node [s] *)
  node_load : float array;   (** measured load per subject node [F] *)
}
(** Per-node operating-condition feedback from a previous mapping round
    (see {!Flow.compile}): with hints, covering decisions are taken at the
    OPCs the node actually experiences — which is where aged libraries
    differentiate cells (paper Sec. 4.3). *)

type result = {
  netlist : Aging_netlist.Netlist.t;
  net_of_node : Aging_netlist.Netlist.net option array;
      (** net implementing each subject node (indexed by node id), for
          extracting hints from a timing analysis of [netlist] *)
}

val map :
  slew_aware:bool ->
  ?hints:hints ->
  library:Aging_liberty.Library.t ->
  design_name:string ->
  clock_name:string ->
  Subject.t ->
  Decompose.boundaries ->
  result
(** Covers the subject graph and reconstructs a netlist (flip-flops
    reinstated from the boundaries).  Without hints, covering assumes a
    40 ps input slew and a load of 1 fF plus 1 fF per fanout; with
    [slew_aware = false] (the ablation) every pin sees the 40 ps slew
    instead of its driver's estimated output slew.
    @raise Failure if some live node cannot be covered (the library must
    contain at least NAND2 and INV). *)
