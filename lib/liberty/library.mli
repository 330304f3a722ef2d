(** Cell libraries: collections of characterized timing entries.

    A library entry pairs a catalog cell with its NLDM timing arcs under one
    aging corner.  A plain (single-corner) library uses bare cell names
    ("NAND2_X1"); the merged complete library
    ([Aging_core.Degradation_library.complete]) uses indexed names
    ("NAND2_X1\@0.4_0.6", see {!Aging_physics.Scenario.indexed_name})
    carrying the duty-cycle corner, mirroring the paper's renaming
    scheme. *)

type timing_sense = Positive | Negative

type direction = Rise | Fall
(** Output transition direction. *)

type arc = {
  from_pin : string;
  to_pin : string;
  sense : timing_sense;
  when_side : (string * bool) list;
      (** side-input values the arc was characterized under *)
  delay_rise : Nldm.table;   (** delay to output rise [s] *)
  delay_fall : Nldm.table;
  slew_rise : Nldm.table;    (** output transition time on rise [s] *)
  slew_fall : Nldm.table;
}

type entry = {
  cell : Aging_cells.Cell.t;
  indexed_name : string;
  corner : Aging_physics.Scenario.corner;
  arcs : arc list;
  pin_caps : (string * float) list;  (** input pin capacitances [F] *)
  setup_time : float;  (** flip-flops only; 0 for combinational cells *)
}

type t
(** A library; build with {!create}, inspect with {!entries}. *)

exception Cell_not_found of { library : string; cell : string }
(** Raised by {!find_exn} instead of a bare [Not_found], so a failing STA
    or synthesis run names exactly which cell is missing from which
    library. *)

exception Pin_not_found of { cell : string; pin : string }
(** Raised by {!input_cap}; [cell] is the entry's indexed name. *)

val create : lib_name:string -> axes:Axes.t -> entry list -> t
(** @raise Invalid_argument on duplicate indexed names. *)

val lib_name : t -> string
val axes : t -> Axes.t
val entries : t -> entry list

val find : t -> string -> entry option
(** Lookup by indexed name. *)

val find_exn : t -> string -> entry
(** @raise Cell_not_found on an unknown indexed name. *)

val names : t -> string list

val arc_of : entry -> from_pin:string -> to_pin:string -> arc option

val delay_of : arc -> dir:direction -> slew:float -> load:float -> float
(** Delay to the output transitioning in [dir] given the input slew. *)

val out_slew_of : arc -> dir:direction -> slew:float -> load:float -> float

val out_direction : arc -> in_dir:direction -> direction
(** Direction the output moves for an input moving in [in_dir], per the
    arc's timing sense. *)

val input_cap : entry -> string -> float
(** @raise Pin_not_found on an unknown pin. *)

val worst_delay : entry -> float
(** Largest delay value across all arcs/directions/grid points (used by
    area/overview reports). *)
