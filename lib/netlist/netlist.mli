(** Gate-level netlists.

    A netlist is a set of cell instances connected by nets, with named
    primary inputs/outputs and an optional clock net driving the flip-flops.
    Cell names refer to the {!Aging_cells.Catalog} — possibly carrying an
    aging-corner index suffix ("NAND2_X1\@0.4_0.6") after annotation, which
    is transparent to structural operations. *)

type net = int

type instance = {
  inst_name : string;
  cell_name : string;
  inputs : (string * net) list;   (** input pin -> net, in cell pin order *)
  outputs : (string * net) list;  (** output pin -> net *)
}

type t = {
  design_name : string;
  n_nets : int;
  instances : instance array;
  input_ports : (string * net) list;
  output_ports : (string * net) list;
  clock : net option;
}

val base_cell_name : string -> string
(** Strips a corner index suffix: ["NAND2_X1\@0.4_0.6"] -> ["NAND2_X1"]
    (the base of {!Aging_physics.Scenario.split_indexed}). *)

val catalog_cell : instance -> Aging_cells.Cell.t
(** Resolves the instance's catalog cell (index suffix ignored).
    @raise Failure on unknown cells. *)

val is_flipflop : instance -> bool

(** {1 Construction} *)

module Builder : sig
  type netlist = t
  type b

  val create : string -> b
  val fresh_net : b -> net
  val input : b -> string -> net
  (** Declares a primary input and returns its net. *)

  val output : b -> string -> net -> unit
  (** Declares a primary output fed by [net]. *)

  val clock : b -> string -> net
  (** Declares the clock input (at most once).
      @raise Invalid_argument on a second clock. *)

  val cell :
    b -> ?name:string -> string -> inputs:(string * net) list -> net list
  (** [cell b cell_name ~inputs] instantiates a catalog cell, allocates one
      fresh net per output pin and returns them in cell pin order.  For
      flip-flops the CK pin is wired to the clock automatically (and must
      not be passed in [inputs]).
      @raise Failure on unknown cell or missing pins. *)

  val cell_into :
    b -> ?name:string -> string -> inputs:(string * net) list ->
    outputs:(string * net) list -> unit
  (** Like {!cell} but connecting the outputs to caller-allocated nets
      (needed when an output net must exist before the instance, e.g.
      flip-flop Q nets during technology mapping). *)

  val finish : b -> netlist
  (** @raise Failure if a declared clock is required (flip-flops present)
      but missing, a net has multiple drivers, or two instances or two
      input ports share a name. *)
end

(** {1 Queries} *)

val combinational_order : t -> instance list
(** Combinational instances in topological order (flip-flop outputs and
    primary inputs are sources).
    @raise Failure on a combinational cycle. *)

val combinational_indices : t -> int array
(** {!combinational_order} as indices into [instances]. *)

val levelize : t -> bool array * int array
(** [(ff, order)]: [ff.(i)] tells whether instance [i] is a flip-flop, and
    [order] is {!combinational_indices}; one catalog lookup per instance.
    @raise Failure on a combinational cycle or an unknown cell. *)

val flipflops : t -> instance list

val driver_of : t -> net -> (instance * string) option
(** The instance/output-pin pair driving a net, if any (primary inputs have
    no driver). *)

val fanout_of : t -> net -> (instance * string) list
(** Instance/input-pin pairs reading a net. *)

val area : t -> float
(** Total cell area [m^2] from catalog metadata. *)

val count_cells : t -> (string * int) list
(** Instance count per base cell name, sorted by name. *)

val rename_cells : (instance -> string) -> t -> t
(** Rewrites every instance's [cell_name] (used by aging annotation). *)

(** {1 Cycle-accurate functional evaluation} *)

type state = bool array
(** One bool per flip-flop, in [flipflops] order. *)

val initial_state : t -> state

val eval_cycle :
  t -> state -> inputs:(string * bool) list -> (string * bool) list * state
(** Evaluates one clock cycle: combinational settle from primary inputs and
    current FF outputs, returning primary-output values and the next FF
    state.  @raise Failure on missing input bindings. *)

val eval_combinational :
  t -> inputs:(string * bool) list -> (string * bool) list
(** [eval_cycle] for purely combinational netlists.
    @raise Invalid_argument if the netlist has flip-flops. *)

type compiled = private {
  netlist : t;
  order : int array;
      (** combinational instances in topological order, as indices into
          [instances]: step [k] evaluates [instances.(order.(k))] *)
  tables : int array array;
      (** per step, the cell's truth table ({!Aging_cells.Cell.t.table}) *)
  step_inputs : int array array;  (** per step, input nets in pin order *)
  step_outputs : int array array; (** per step, output nets in pin order *)
  port_index : (string, int) Hashtbl.t;
      (** input port name -> its index in [input_ports] *)
  port_net : int array;   (** input port nets, in [input_ports] order *)
  ff_q : int array;       (** per flip-flop ({!flipflops} order), Q net *)
  ff_d : int array;       (** per flip-flop, D net *)
}
(** Pre-levelized evaluator for repeated cycle evaluation (the topological
    sort, catalog lookups and port resolution are done once). *)

val compile : t -> compiled

val compile_levelized : t -> bool array * int array -> compiled
(** {!compile} from a {!levelize} result of the same netlist, for callers
    that already levelized it. *)

val compiled_cycle :
  compiled -> state -> inputs:(string * bool) list ->
  (string * bool) list * state
(** Same contract as {!eval_cycle}. *)

val compiled_net_values :
  compiled -> state -> inputs:(string * bool) list -> bool array
(** The settled value of every net for the given inputs/state (clock nets
    read as [false]); used by activity profiling. *)

val next_state_of_values : compiled -> bool array -> state
(** Extracts the captured flip-flop state from a settled net-value vector
    (as returned by {!compiled_net_values}). *)
