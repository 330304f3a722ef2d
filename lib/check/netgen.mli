(** Random gate-level DAG netlists for the differential oracles.

    A generated {!spec} is a shrinkable {e recipe}: gate picks and raw
    source indices that {!build} resolves (modulo the set of nets available
    at that point) into a well-formed {!Aging_netlist.Netlist.t} — always
    single-driver and acyclic because gates only read nets created before
    them (primary inputs, flip-flop outputs, earlier gate outputs), while
    flip-flop D pins close feedback loops through the registers.  Dropping
    or shrinking recipe entries yields a smaller but still well-formed
    netlist, which is what makes shrunk counterexamples readable. *)

type gate = {
  cell : int;  (** index into {!cell_pool} *)
  srcs : int list;  (** raw source picks, reduced modulo available nets *)
}

type spec = {
  n_inputs : int;
  n_ffs : int;
  gates : gate list;
  ff_srcs : int list;  (** D-pin picks, one per flip-flop *)
  out_srcs : int list;  (** primary-output picks (at least one) *)
  stim_seed : int;  (** seeds the {!stimulus} bit streams *)
}

val cell_pool : Aging_cells.Cell.t array
(** The combinational cells specs draw from (X1 drives across the
    catalog families). *)

val spec : spec QCheck2.Gen.t
(** 1-5 inputs, 0-3 flip-flops, 1-25 gates. *)

val build : spec -> Aging_netlist.Netlist.t

val stimulus : spec -> int -> (string * bool) list
(** [stimulus s cycle]: deterministic random primary-input values for the
    given cycle, derived from [s.stim_seed]. *)

val pp_spec : spec -> string
