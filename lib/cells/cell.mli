(** Standard-cell descriptors: logic function, transistor netlist, metadata.

    A cell couples a boolean function (used by logic simulation, synthesis
    and the netlist evaluator) with a transistor-level {!Aging_spice.Circuit}
    (used by characterization), plus the metadata a library needs (area,
    drive strength, pin capacitances, timing arcs). *)

type kind = Combinational | Flipflop

type built = {
  circuit : Aging_spice.Circuit.t;
  input_nodes : (string * Aging_spice.Circuit.node) list;
  output_nodes : (string * Aging_spice.Circuit.node) list;
}

type t = {
  name : string;        (** full name, e.g. ["NAND2_X2"] *)
  base : string;        (** family name, e.g. ["NAND2"] *)
  drive : int;          (** drive strength (the X number) *)
  inputs : string list; (** input pin names, in logic-argument order *)
  outputs : string list;(** output pin names, in logic-result order *)
  logic : bool list -> bool list;
      (** combinational function; for a flip-flop, the captured next-state
          function ([Q := D]) used by cycle-level evaluation *)
  table : int array;
      (** [logic] tabulated once: entry [code] (bit [i] = input [i], in
          [inputs] order) holds the outputs (bit [k] = output [k], in
          [outputs] order); [2^n] entries for [n] inputs *)
  kind : kind;
  area : float;         (** layout area [m^2] *)
  built : built;        (** reference transistor netlist (fresh devices) *)
}

type arc = {
  arc_input : string;
  arc_output : string;
  side : (string * bool) list;
      (** sensitizing values for the other input pins *)
  positive_unate : bool;
      (** under [side], the output follows the input direction *)
}

val max_inputs : int
(** The most input pins a cell may have (its truth table has
    [2^max_inputs] entries at most). *)

val make :
  name:string -> base:string -> drive:int -> inputs:string list ->
  outputs:string list -> logic:(bool list -> bool list) -> kind:kind ->
  built:built -> t
(** Computes the area from the total transistor width and the truth table
    from [logic], and validates that the pin lists match the built nodes.
    @raise Invalid_argument on inconsistent pins or more than
    {!max_inputs} inputs. *)

val arcs : t -> arc list
(** Sensitizable timing arcs.  For combinational cells these are derived
    from the logic function by searching side-input assignments (first
    sensitizing assignment in lexicographic order).  For flip-flops the arcs
    are CK -> Q with [D] held at 1 (rising Q) and 0 (falling Q). *)

val input_capacitance : t -> string -> float
(** Gate capacitance presented by an input pin [F].
    @raise Not_found if the pin does not exist. *)

val eval : t -> bool list -> bool list
(** [logic] with an arity check.
    @raise Invalid_argument on wrong input count. *)

val area_per_width_unit : float
(** Area model: [area = area_per_width_unit * total_width / w_min]. *)
