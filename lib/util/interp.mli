(** Piecewise-linear interpolation on monotone grids: 1-D linear
    interpolation over a strictly increasing axis.  Queries outside the
    grid are linearly extrapolated from the outermost segment, matching the
    behaviour of industrial timing tools on out-of-range slew/load values.
    The 2-D bilinear lookup of NLDM tables is {!Aging_liberty.Nldm.lookup}. *)

val bracket : float array -> float -> int
(** [bracket axis x] returns the index [i] such that the segment
    [axis.(i), axis.(i+1)] is used to interpolate at [x].  For [x] below
    (resp. above) the grid the first (resp. last) segment index is returned.
    @raise Invalid_argument if [axis] has fewer than 2 points or is not
    strictly increasing at the chosen segment. *)

val linear : float array -> float array -> float -> float
(** [linear xs ys x] interpolates [ys] over grid [xs] at [x], extrapolating
    linearly beyond the ends.  [Array.length xs = Array.length ys >= 2]. *)

val monotone_increasing : float array -> bool
(** [monotone_increasing a] is [true] iff [a] is strictly increasing. *)
