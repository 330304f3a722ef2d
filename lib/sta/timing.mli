(** Block-based static timing analysis with slew propagation.

    Arrival times and transitions are propagated per net and per edge
    direction (rise/fall) through NLDM lookups, exactly as an industrial
    timing engine consumes the degradation-aware libraries: plugging in an
    aged library re-times the whole design with no tool changes — the
    paper's central workflow claim.

    Clocks are ideal (zero skew, zero latency).  Flip-flop Q nets launch at
    the clk->q delay; flip-flop D pins and primary outputs are endpoints. *)

val input_slew : float
(** Transition assumed at primary inputs: 20 ps.  Primary outputs carry
    4 fF, and each driven input pin adds 0.2 fF of lumped wire load. *)

val clock_slew : float
(** Transition of the clock at flip-flops: 20 ps. *)

val resolve_entry :
  Aging_liberty.Library.t -> string -> Aging_liberty.Library.entry
(** [resolve_entry library cell_name] is the library entry timing an
    instance of [cell_name]: the entry of that exact name (a corner-indexed
    name in a complete library), else the entry of its base name.
    @raise Failure naming the cell and the library if neither exists. *)

type analysis
(** Result of one timing pass over a netlist. *)

type structure
(** Topology of a netlist (combinational order, flip-flop list and each
    instance's pin nets, by instance index) that is independent of cell
    selection: reusable across re-timings of drive-swapped or renamed
    variants of the same netlist, and across libraries. *)

val prepare_structure : Aging_netlist.Netlist.t -> structure

val levelization : structure -> bool array * int array
(** The {!Aging_netlist.Netlist.levelize} result the structure was built
    from. *)

val analyze :
  ?structure:structure ->
  library:Aging_liberty.Library.t -> Aging_netlist.Netlist.t ->
  analysis
(** Times the netlist against the library.  Instance cell names are resolved
    first as-is (supporting corner-indexed names in a complete library) and
    then by base name.  A [structure] from a netlist with identical
    connectivity and pin order (e.g. before a cell swap, or before
    corner-indexing its cell names) skips the topological sort.
    @raise Failure if a cell cannot be resolved in the library. *)

val netlist : analysis -> Aging_netlist.Netlist.t
(** The timed netlist, with the cells currently chosen. *)

val instance : analysis -> int -> Aging_netlist.Netlist.instance
(** [instance a i] is [(netlist a).instances.(i)], without building the
    netlist. *)

val library : analysis -> Aging_liberty.Library.t

val arrival :
  analysis -> Aging_netlist.Netlist.net -> Aging_liberty.Library.direction ->
  float
(** Latest arrival time of the given edge on a net; [neg_infinity] if the
    edge is unreachable. *)

val slew_at :
  analysis -> Aging_netlist.Netlist.net -> Aging_liberty.Library.direction ->
  float
(** Transition time of the latest such edge. *)

val min_arrival :
  analysis -> Aging_netlist.Netlist.net -> Aging_liberty.Library.direction ->
  float
(** Earliest arrival of the given edge (shortest-path propagation);
    [infinity] if unreachable.  The early side of the analysis: aging that
    *speeds a gate up* (e.g. the NOR fall improvement of Fig. 1b) shortens
    these and can create hold hazards. *)

val hold_slacks : analysis -> (string * float) list
(** Per flip-flop: instance name and hold slack
    [earliest D arrival - hold requirement] (hold modelled as a fixed
    fraction of the cell's setup window).  Negative slack = violation. *)

val worst_hold_slack : analysis -> float
(** Smallest hold slack over all flip-flops ([infinity] if none). *)

val load_on : analysis -> Aging_netlist.Netlist.net -> float
(** Capacitive load used for the net. *)

type endpoint =
  | Output_port of string * Aging_netlist.Netlist.net
  | Flipflop_d of string * Aging_netlist.Netlist.net
      (** instance name and the net feeding its D pin *)

type endpoint_timing = {
  endpoint : endpoint;
  data_arrival : float;   (** latest data arrival at the endpoint [s] *)
  direction : Aging_liberty.Library.direction;  (** edge achieving it *)
  setup : float;          (** setup requirement (0 for output ports) [s] *)
}

val endpoints : analysis -> endpoint_timing list
(** All endpoints, worst (largest [data_arrival + setup]) first. *)

val min_period : analysis -> float
(** Smallest clock period that meets every endpoint:
    max over endpoints of (data_arrival + setup).  For a purely
    combinational design this is the critical-path delay. *)

val provenance :
  analysis -> Aging_netlist.Netlist.net -> Aging_liberty.Library.direction ->
  (int * string * Aging_liberty.Library.direction) option
(** The instance (an index, see {!instance}), input pin and input edge that
    produced the latest arrival on (net, direction); [None] for timing start
    points. *)

(** {1 Incremental timing}

    A timer holds one analysis and keeps it exact across single-cell
    swaps: a swap re-sums the loads on the swapped instance's input nets,
    re-evaluates their drivers and the instance itself, then walks the
    forward cone in evaluation order, stopping wherever an instance's
    outputs (arrival, earliest arrival, slew and provenance, both edges)
    come out bitwise unchanged.  Every query on {!analysis} then returns
    the same bits a fresh {!analyze} of the swapped netlist would. *)

module Incremental : sig
  type t

  val create :
    library:Aging_liberty.Library.t ->
    Aging_netlist.Netlist.t -> t
  (** Times the netlist once (a full pass, counted in [sta.analyses]).
      @raise Failure as {!analyze}. *)

  val analysis : t -> analysis
  (** The timer's live analysis: queries reflect the latest {!swap} or
      {!rollback}. *)

  val swap : t -> inst:int -> cell:string -> unit
  (** Re-binds instance [inst] (an index into the netlist's instances) to
      [cell], a variant with the same pins, and re-times what it reaches.
      Counted in [sta.updates].
      @raise Failure if [cell] is not in the library; the timer is then
      unchanged. *)

  val rollback : t -> unit
  (** Undoes every swap since the last {!commit} (or {!create}) from the
      journal, without propagating.  Counted in [sta.updates]. *)

  val commit : t -> unit
  (** Keeps the swaps made so far: the next {!rollback} stops here. *)
end
