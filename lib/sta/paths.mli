(** Critical-path extraction and path re-timing.

    Paths are recovered by walking the provenance pointers of a timing
    {!Timing.analysis}.  A recovered path can be re-timed under a different
    library ({!retime}) — the ingredient of the Fig. 5(c) experiment, where
    the state of the art re-times only the initially critical path under
    aging instead of re-analyzing the whole design. *)

type step = {
  index : int;  (** of [inst] in the netlist's instances *)
  inst : Aging_netlist.Netlist.instance;
  from_pin : string;
  to_pin : string;
  in_dir : Aging_liberty.Library.direction;
  out_dir : Aging_liberty.Library.direction;
  stage_delay : float;   (** this stage's contribution under the analysis library *)
  arrival_after : float; (** arrival at the stage output *)
}

type t = {
  start_net : Aging_netlist.Netlist.net;
  steps : step list;        (** in propagation order *)
  endpoint : Timing.endpoint_timing;
  total : float;            (** data arrival at the endpoint *)
}

val critical : Timing.analysis -> t
(** The worst path of the design.  @raise Failure on an empty design. *)

val trace : Timing.analysis -> Timing.endpoint_timing -> t
(** The worst path into one endpoint. *)

val per_endpoint : Timing.analysis -> t list
(** One worst path per endpoint, sorted worst-first.  This is the path set
    used to detect critical-path switching under aging. *)

val retime :
  library:Aging_liberty.Library.t -> analysis:Timing.analysis -> t -> float
(** Re-evaluates the delay of exactly this gate sequence under another
    library, propagating slews stage by stage while keeping each stage's
    capacitive load as computed on the full netlist.  Returns the new
    endpoint arrival (including the launch clk->q stage if the path starts
    at a flip-flop).
    @raise Failure if a cell of the path is missing from [library]. *)
