(** Characterization grids (operating conditions).

    The paper uses 49 OPCs per cell: 7 input slews spanning 5 ps - 947 ps and
    7 output loads spanning 0.5 fF - 20 fF (Sec. 4.4), the ranges of the
    Nangate 45 nm library.  [coarse] is a 3x3 subgrid for fast tests. *)

type t = { slews : float array; loads : float array }

val paper : t
(** The 7x7 grid of the paper. *)

val coarse : t
(** A 3x3 grid covering the same ranges (for unit tests). *)

val count : t -> int
(** Number of OPCs (|slews| * |loads|). *)
