(** Non-Linear Delay Model tables.

    The standard industrial abstraction: delay and output transition time of
    a timing arc as 2-D lookup tables over (input slew, output load), with
    bilinear interpolation and linear extrapolation outside the
    characterized grid. *)

type table = private {
  slews : float array;           (** input-slew axis [s], strictly increasing *)
  loads : float array;           (** load axis [F], strictly increasing *)
  values : float array array;    (** [values.(slew_index).(load_index)] [s] *)
}

val make :
  slews:float array -> loads:float array -> values:float array array -> table
(** @raise Invalid_argument on axis/shape mismatch or non-monotone axes. *)

val lookup : table -> slew:float -> load:float -> float
(** Bilinear interpolation / extrapolation. *)

val lookup_pair : table -> table -> float array -> int
(** [lookup_pair delay slew io] interpolates both tables at the point
    ([io.(0)] input slew, [io.(1)] load), writing the [delay] value to
    [io.(2)] and the [slew] value to [io.(3)]: the same bits as two
    {!lookup} calls, with no allocation.  The STA kernel makes one such
    call per arc edge.  Returns where the point lies strictly outside each
    table's axes (so the value was extrapolated): the {!slew_low},
    {!slew_high}, {!load_low} and {!load_high} bits for [delay], the same
    bits shifted left by 4 for [slew]. *)

val slew_low : int
val slew_high : int
val load_low : int
val load_high : int

val tabulate :
  slews:float array -> loads:float array -> (slew:float -> load:float -> float)
  -> table
(** Fills a table by evaluating [f] at every grid point. *)

val map : (float -> float) -> table -> table

val map2 : (float -> float -> float) -> table -> table -> table
(** Pointwise combination; the tables must share axes.
    @raise Invalid_argument otherwise. *)

val fold : ('a -> float -> 'a) -> 'a -> table -> 'a
(** Folds over every table value (row-major). *)

val max_value : table -> float
val min_value : table -> float

val dimensions : table -> int * int
(** (number of slews, number of loads). *)
