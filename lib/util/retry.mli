(** Retry policies: escalation ladders paced by capped exponential backoff.

    {b Escalation} ([with_escalation]) runs an attempt at each rung of a
    ladder of progressively more conservative configurations until one
    succeeds.  The characterization pipeline uses this to re-run failed
    transient simulations with tighter solver settings before degrading to
    a fallback model, but the policy itself is generic: a ladder is any
    list of configurations, an attempt is any function returning a
    [result].

    {b Backoff} ([backoff_delay], [pause_of_backoff]) paces the rungs with
    capped exponential delays and deterministic seeded jitter when
    failures look transient rather than deterministic.  Sleeping is
    injectable ([sleep]) so tests can assert the schedule without
    sleeping. *)

type ('a, 'e) outcome =
  | First_try of 'a            (** the first rung succeeded *)
  | Recovered of 'a * 'e list
      (** a later rung succeeded; carries the errors of the failed
          attempts, in attempt order *)
  | Exhausted of 'e list
      (** every rung failed; all errors, in attempt order *)

val with_escalation :
  ?pause:(failures:int -> unit) ->
  ladder:'c list -> ('c -> ('a, 'e) result) -> ('a, 'e) outcome
(** [with_escalation ~ladder f] calls [f] on each rung of [ladder] in order
    and stops at the first [Ok].  [pause ~failures] (default: none — retry
    immediately) is called before every re-attempt with the number of
    failures so far ([>= 1]); use {!pause_of_backoff} to wait out transient
    faults between rungs.
    @raise Invalid_argument on an empty ladder. *)

val succeeded : ('a, 'e) outcome -> 'a option

val attempts : ('a, 'e) outcome -> int
(** Number of attempts actually made (>= 1 unless the ladder was empty). *)

val errors : ('a, 'e) outcome -> 'e list
(** Errors of the failed attempts, in attempt order. *)

(** {2 Capped exponential backoff} *)

type backoff = {
  base : float;
      (** delay before the second attempt, in seconds (>= 0) *)
  factor : float;
      (** growth per failure (>= 1): the [k]-th delay is
          [base *. factor ** (k - 1)] before capping *)
  cap : float;
      (** upper bound on any single delay, in seconds *)
  jitter : float;
      (** fraction of each delay randomized away, in [0, 1]: with a
          generator, delay [d] becomes [d *. (1. -. jitter *. u)] for
          [u ~ U[0,1)] — deterministic for a fixed {!Rng.t} seed.  Without
          a generator the undithered delay is used. *)
}

val backoff_delay : ?rng:Rng.t -> backoff -> failures:int -> float
(** The delay scheduled after the [failures]-th consecutive failure
    ([failures >= 1]): [min cap (base *. factor ** (failures - 1))],
    dithered by [jitter] when [rng] is given (advancing it by one draw). *)

val pause_of_backoff :
  ?sleep:(float -> unit) -> ?rng:Rng.t -> backoff -> failures:int -> unit
(** Adapter for {!with_escalation}'s [pause]: sleeps
    [backoff_delay ~failures] (the ladder length bounds the attempts). *)
