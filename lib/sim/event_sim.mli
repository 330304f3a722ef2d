(** Event-driven gate-level simulation with library-annotated delays.

    The ModelSim + SDF substitute: instance delays are extracted from a
    timing library (using the slews and loads of a full STA pass, like an
    SDF annotation), events propagate with inertial semantics, and
    flip-flops sample their D input [setup] before each rising clock edge.
    Running a netlist at a frequency its aged delays cannot sustain produces
    exactly the timing errors whose system-level impact the paper studies on
    the DCT-IDCT chain (Sec. 5, Figs. 6c and 7). *)

type t
(** A simulatable design: netlist + annotated delays. *)

val prepare :
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  t
(** Runs STA against [library], freezes per-instance pin-to-pin delays
    (rise/fall, per triggering pin) and compiles the zero-delay reference
    evaluator, so {!run} repeats none of this work. *)

val min_period : t -> float
(** The STA minimum period of the prepared design under its library. *)

val design : t -> Aging_netlist.Netlist.t
(** The netlist this simulation was prepared from. *)

type trace = {
  outputs : (string * bool) list array;
      (** primary-output values captured at each rising edge (the edge at
          the *end* of each cycle), in the design's [output_ports] order *)
  timing_errors : int;
      (** number of flip-flop captures that differed from the zero-delay
          reference during the run *)
}

val run :
  t ->
  period:float ->
  cycles:int ->
  stimulus:(int -> (string * bool) list) ->
  trace
(** Simulates [cycles] clock cycles at the given period.  [stimulus n]
    provides the primary-input values applied at the start of cycle [n]
    (held for the whole cycle); it is called once per cycle.  Flip-flops
    start at 0.
    @raise Invalid_argument if [period <= 0] or [cycles < 0].
    @raise Failure on a stimulus port that is not a primary input, or a
    primary input the stimulus leaves unbound. *)

val run_functional :
  Aging_netlist.Netlist.t -> cycles:int ->
  stimulus:(int -> (string * bool) list) -> (string * bool) list array
(** Zero-delay cycle-accurate reference using the netlist evaluator, with
    the same output convention as {!run} (values captured at the end-of-
    cycle edge). *)
