(** A small domain-based worker pool for embarrassingly parallel maps.

    [map ~jobs f xs] applies [f] to every element of [xs] on up to [jobs]
    domains and returns the results {e in input order} — never in
    completion order — so a parallel map is bit-for-bit substitutable for
    [List.map].  The input is claimed item by item: each domain, the
    calling one included, takes the next unclaimed element until none is
    left, so work items need not be similar in cost — a long item simply
    occupies one domain while the others drain the rest.  Callers with
    skewed costs get the best balance by putting the longest items first.

    Nested calls never oversubscribe: a [map] issued from inside a pool
    worker runs sequentially on that worker, so a parallel layer composed
    over another fans out only at the outermost level that actually has
    more than one work item.

    Exceptions propagate: if any application of [f] raises, every other
    item still runs to completion (no cancellation), and then the exception of
    the {e lowest-indexed} failing element is re-raised in the caller with
    its original backtrace — deterministic no matter which domain hit it
    first.

    The pool drains fully no matter what: every domain actually spawned is
    joined before [map] returns or raises — including when a late
    [Domain.spawn] itself fails or a worker dies outside the per-element
    handler — and the caller's nesting flag is always reset, so a [map]
    that raised leaks nothing and the next [map] on the same domain
    parallelizes again. *)

val default_jobs : unit -> int
(** The pool width used by the CLI and benches when none is given
    explicitly: [$AGING_JOBS] if set to a positive integer, otherwise
    {!Domain.recommended_domain_count} (an unparsable or non-positive
    [$AGING_JOBS] falls back to the recommended count). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs] domains
    ([jobs] defaults to {!default_jobs}; values [<= 1], singleton/empty
    inputs, and nested calls run sequentially without spawning). *)
