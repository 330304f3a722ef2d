(** A bounded least-recently-used cache.

    {!Aging_core.Degradation_library}'s in-memory memo must hold a working
    set of expensive libraries without growing without limit over a long
    corner sweep; this is its eviction policy.  [find] promotes the
    binding to most-recently-used, [put] evicts the least-recently-used
    binding once the capacity is exceeded and hands it back to the caller
    (for logging / metrics).

    Not thread-safe: callers that share a cache across domains serialize on
    their own lock, which is what they need anyway to make lookup-miss-fill
    sequences atomic. *)

type ('k, 'v) t

val create : cap:int -> ('k, 'v) t
(** [cap] is the maximum number of bindings.
    @raise Invalid_argument if [cap < 1]. *)

val cap : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the binding to most-recently-used when present. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does {e not} promote. *)

val put : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Inserts (or replaces, promoting) the binding and returns the binding
    evicted to stay within capacity, if any.  A replacement never
    evicts. *)

val remove : ('k, 'v) t -> 'k -> unit

val clear : ('k, 'v) t -> unit

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Bindings most-recently-used first (for tests and introspection). *)
