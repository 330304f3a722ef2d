(** Aging stress scenarios and the corner grid of the complete library.

    A corner fixes the duty cycles of all pMOS transistors
    ([lambda_p]) and all nMOS transistors ([lambda_n]) of a cell, following
    the paper's simplifying assumption (Sec. 4.1, footnote 2).  The paper's
    grid steps both lambdas by 0.1 over [0, 1], yielding the 121
    degradation-aware libraries that are merged into the complete library. *)

type corner = {
  lambda_p : float;  (** duty cycle of the pMOS transistors, in [0, 1] *)
  lambda_n : float;  (** duty cycle of the nMOS transistors, in [0, 1] *)
}

val corner : lambda_p:float -> lambda_n:float -> corner
(** @raise Invalid_argument if a lambda is outside [0, 1]. *)

val fresh : corner
(** No aging: both lambdas 0. *)

val worst_case : corner
(** Static worst-case stress: both lambdas 1 (paper Sec. 4.2). *)

val balanced : corner
(** The balance case lambda = 0.5 targeted by duty-cycle-balancing
    techniques. *)

val grid : ?step:float -> unit -> corner list
(** [grid ()] is the 11x11 = 121 corner grid with [step] 0.1 (row-major:
    lambda_p outer, lambda_n inner).  @raise Invalid_argument if [step]
    does not evenly divide 1 (within 1e-9). *)

val snap : ?step:float -> corner -> corner
(** Rounds both lambdas to the nearest grid point (default step 0.1), as
    required when annotating a netlist with measured duty cycles for lookup
    in the complete library. *)

val suffix : corner -> string
(** Corner encoding used in indexed cell names, e.g. ["0.4_0.6"]
    (lambda_p first, as in the paper's [AND2_0.4_0.6]). *)

val of_suffix : string -> corner option
(** Inverse of {!suffix}; [None] on malformed input. *)

val indexed_name : string -> corner -> string
(** The complete library's corner-indexed cell name (Sec. 4.1):
    [indexed_name "NAND2_X1" c] is ["NAND2_X1\@0.4_0.6"] for the corner
    (0.4, 0.6).  This module is the only place that writes or parses the
    ["\@"] separator. *)

val split_indexed : string -> string * corner option
(** Inverse of {!indexed_name}: ["NAND2_X1\@0.4_0.6"] ->
    [("NAND2_X1", Some corner)].  A name without ["\@"] maps to
    [(name, None)]; a malformed suffix keeps the base and yields [None]. *)

val equal : corner -> corner -> bool
(** Equality up to 1e-9 on both lambdas. *)

type t = {
  corner : corner;
  years : float;          (** lifetime, default 10 *)
  temp_k : float;         (** stress temperature [K] *)
  mode : Degradation.mode;
  defect_scale : float;   (** BTI-variability bound multiplier, default 1 *)
}
(** A full aging scenario: corner plus lifetime/temperature/analysis mode
    and an optional variability upper-bound factor (see
    {!Degradation.of_stress}). *)

val scenario :
  ?years:float -> ?temp_k:float -> ?mode:Degradation.mode ->
  ?defect_scale:float -> corner -> t

val stress_of : t -> lambda:float -> Bti.stress
(** The {!Bti.stress} a transistor with duty cycle [lambda] sees under
    scenario [t]. *)

val age_device : t -> Device.params -> Device.params
(** Ages a device according to the scenario, using [corner.lambda_p] for
    pMOS and [corner.lambda_n] for nMOS devices. *)
