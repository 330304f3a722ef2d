(** The standard-cell catalog: a Nangate-45-style open library.

    Substitutes for the Nangate 45 nm Open Cell Library the paper
    characterizes (68 combinational + sequential cells).  The catalog holds
    50+ cells across 27 families (inverters, buffers, NAND/NOR/AND/OR 2-4,
    AOI/OAI complex gates, XOR/XNOR, multiplexers, half/full adders and a
    master-slave D flip-flop) at several drive strengths, each with a full
    transistor-level netlist including stack-aware sizing and terminal
    parasitics. *)

val all : unit -> Cell.t list
(** Every cell, in a stable order.  The list is built once and memoized. *)

val find : string -> Cell.t option
(** Look a cell up by full name, e.g. ["NAND2_X2"] (a hash lookup). *)

val find_exn : string -> Cell.t
(** @raise Not_found if the cell does not exist. *)

val variants : string -> Cell.t list
(** All drive variants of a family, weakest first, e.g.
    [variants "INV"]. *)

val families : unit -> string list
(** All family names, in catalog order. *)

val combinational : unit -> Cell.t list
(** All non-flip-flop cells. *)
