(** Small dense linear algebra for the regression kernel.

    Same factor/solve split as the spice engine's Newton solver (see
    [lib/spice/engine.ml]): the matrix lives in a flat row-major float
    array, [lu_factor] overwrites it in place with the multipliers below
    the diagonal and the row swaps in [piv], and one factorization then
    serves any number of right-hand sides — exactly what the ridge normal
    equations need, where the factored matrix is reused for the
    coefficient solve and for every leverage evaluation.  The code is
    deliberately a sibling of the engine's kernel rather than a shared
    module: the engine copy is compiled under [-unsafe -inline 200] on the
    transient hot path and must not grow library-boundary indirection. *)

val lu_factor : float array -> int array -> int -> bool
(** [lu_factor a piv n] factors the [n x n] matrix [a] in place with
    partial pivoting.  Returns [false] (leaving [a] partially clobbered)
    when a pivot collapses below the singularity floor. *)

val lu_solve : float array -> int array -> int -> float array -> unit
(** [lu_solve a piv n b] solves one right-hand side in place using a
    factorization produced by {!lu_factor}. *)
