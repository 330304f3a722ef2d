(** Relative-error ridge regression over a tensor polynomial basis, with
    leave-one-out confidence.

    This is the fitting kernel of {!Aging_liberty.Surrogate}: a
    dependency-free pure-OCaml fit of a small dense linear model over
    normalized features, solved through the {!Linalg} LU.  The design
    goals, in order: {b determinism} (a fit is a pure sequential function
    of the training rows — bit-identical across worker counts and repeated
    runs), {b typed failure} (degenerate designs surface as {!error},
    never as NaN coefficients), and {b honest confidence} (prediction
    intervals from leave-one-out residuals scaled by leverage, which widen
    as a query moves away from the training rows — the property the
    surrogate's serve gate relies on).

    Every fit minimizes {e relative} error: residual [i] is weighted by
    [1 / targets.(i)], so the leave-one-out residuals and the
    {!confidence} half-widths are fractions of the predicted value.
    Targets must therefore be positive.

    Why ridge rather than plain least squares: the surrogate's designs are
    a handful of rows on log-spaced grid axes, so the normal matrix is
    routinely ill-conditioned; a small penalty bounds the condition number
    without measurably biasing interpolation. *)

type error =
  | Too_few_rows of { rows : int; params : int }
      (** No rows at all, or an exactly-determined/under-determined
          design with [lambda <= 0]. *)
  | Singular
      (** The (ridge-regularized) normal matrix lost a pivot — e.g. all
          rows duplicated with [lambda = 0]. *)
  | Non_finite of { row : int }
      (** A non-finite feature, or a target whose relative weight
          [1 / y] is not finite and positive, in the given row. *)

val error_to_string : error -> string

type model

val fit :
  ?lambda:float ->
  degrees:int array ->
  rows:float array array ->
  targets:float array ->
  unit ->
  (model, error) result
(** Fits [targets.(i) ~ f(rows.(i))] on the full tensor product of
    per-feature monomials up to [degrees.(k)] in feature [k].  Features
    are normalized to zero mean and unit variance over the training rows
    before basis expansion; a zero-variance feature is pinned to 0, so it
    contributes nothing.  [lambda] (default [1e-4]) penalizes every
    coefficient except the intercept.
    @raise Invalid_argument if [targets] and [rows] disagree in length,
    rows disagree in dimension, or [degrees] does not have one entry per
    feature. *)

val predict : model -> float array -> float

val confidence : model -> float array -> float
(** Relative half-width of the prediction interval at a query point:
    [sigma_loo * sqrt (1 + leverage)], where [sigma_loo] is the
    root-mean-square relative leave-one-out residual and the leverage is
    taken with the query weighted by [1 / predict m x], the unit the
    training rows carry.  Along any ray leaving the data the leverage
    grows, so the interval widens off the training rows.  Infinite when
    the prediction is not positive. *)

val loo_residuals : model -> float array
(** Per-training-row relative leave-one-out residuals (target minus the
    prediction of a model fitted without that row, over the target), in
    row order. *)
