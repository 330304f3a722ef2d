(** Retry policy: escalation ladders.

    [with_escalation] runs an attempt at each rung of a
    ladder of progressively more conservative configurations until one
    succeeds.  The characterization pipeline uses this to re-run failed
    transient simulations with tighter solver settings before degrading to
    a fallback model, but the policy itself is generic: a ladder is any
    list of configurations, an attempt is any function returning a
    [result].  Rungs run back to back: a failed rung is a deterministic
    solver problem, not a transient one worth waiting out. *)

type ('a, 'e) outcome =
  | First_try of 'a            (** the first rung succeeded *)
  | Recovered of 'a * 'e list
      (** a later rung succeeded; carries the errors of the failed
          attempts, in attempt order *)
  | Exhausted of 'e list
      (** every rung failed; all errors, in attempt order *)

val with_escalation :
  ladder:'c list -> ('c -> ('a, 'e) result) -> ('a, 'e) outcome
(** [with_escalation ~ladder f] calls [f] on each rung of [ladder] in order
    and stops at the first [Ok].
    @raise Invalid_argument on an empty ladder. *)

val succeeded : ('a, 'e) outcome -> 'a option

val attempts : ('a, 'e) outcome -> int
(** Number of attempts actually made (>= 1 unless the ladder was empty). *)

val errors : ('a, 'e) outcome -> 'e list
(** Errors of the failed attempts, in attempt order. *)
