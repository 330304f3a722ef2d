(** Seeded property runner over [QCheck2] generators: replayable cases,
    greedy shrinking, counterexample reporting.

    Case [i] of a run with seed [S] draws its input as {!generate} does
    with the case seed [Aging_util.Rng.derive S i] — so every case is
    independent of the others (an oracle that consumes a different amount
    of randomness on one case cannot shift later cases) and every failure
    reports a {e case seed} that replays it alone: [derive s 0 = s], so
    feeding the reported seed back with [--cases 1] regenerates the exact
    failing input.  Shrinking walks the generator's integrated shrink tree
    ([QCheck2.Tree]); numbers shrink toward 0 clamped into their range. *)

type 'a property = 'a -> (unit, string) result
(** [Ok ()] = pass; [Error msg] = fail.  Exceptions raised by the
    property are caught and treated as failures. *)

type failure = {
  case_index : int;  (** which case of the run failed *)
  case_seed : int64;  (** replays the failure: [--seed=<this> --cases 1] *)
  shrink_steps : int;  (** shrinks applied to reach the minimum *)
  counterexample : string;  (** pretty-printed minimal failing input *)
  message : string;  (** the failing property's explanation *)
}

type outcome = {
  name : string;
  cases_run : int;
  failures : failure list;
  wall_s : float;
  case_s : float list;  (** per-case wall times, in case order *)
}

val run :
  ?cases:int ->
  ?max_shrinks:int ->
  seed:int64 ->
  name:string ->
  print:('a -> string) ->
  gen:'a QCheck2.Gen.t ->
  'a property ->
  outcome
(** Runs [cases] (default 100) independent cases; stops at the first
    failure (after shrinking it, bounded by [max_shrinks], default 500).
    Deterministic for a fixed [seed]. *)

val generate : seed:int64 -> 'a QCheck2.Gen.t -> 'a
(** The input a case with seed [seed] draws: [run ~seed:S] hands its
    property [generate ~seed:(Aging_util.Rng.derive S i) gen] at case [i]. *)

val passed : outcome -> bool

val pp_outcome : outcome -> string
(** One summary line; plus a detailed block per failure (counterexample,
    message, replay seed). *)

val time_summary : outcome -> string
(** ["mean 1.2ms p95 3.4ms"] over the per-case times (["-"] when empty). *)
