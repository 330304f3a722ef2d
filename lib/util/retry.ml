type ('a, 'e) outcome =
  | First_try of 'a
  | Recovered of 'a * 'e list
  | Exhausted of 'e list

let with_escalation ?pause ~ladder f =
  match ladder with
  | [] -> invalid_arg "Retry.with_escalation: empty ladder"
  | _ ->
    let rec go errors = function
      | [] -> Exhausted (List.rev errors)
      | level :: rest -> begin
        (match (pause, errors) with
        | Some pause, _ :: _ -> pause ~failures:(List.length errors)
        | _ -> ());
        match f level with
        | Ok x ->
          if errors = [] then First_try x else Recovered (x, List.rev errors)
        | Error e -> go (e :: errors) rest
      end
    in
    go [] ladder

let succeeded = function
  | First_try x | Recovered (x, _) -> Some x
  | Exhausted _ -> None

let attempts = function
  | First_try _ -> 1
  | Recovered (_, errors) -> 1 + List.length errors
  | Exhausted errors -> List.length errors

let errors = function
  | First_try _ -> []
  | Recovered (_, errors) | Exhausted errors -> errors

(* ------------------------------------------------------------------ *)
(* Capped exponential backoff                                          *)
(* ------------------------------------------------------------------ *)

type backoff = {
  base : float;
  factor : float;
  cap : float;
  jitter : float;
}

let validate p =
  if p.base < 0. || not (Float.is_finite p.base) then
    invalid_arg "Retry: backoff base must be finite and >= 0";
  if p.factor < 1. then invalid_arg "Retry: backoff factor must be >= 1";
  if p.cap < 0. then invalid_arg "Retry: backoff cap must be >= 0";
  if p.jitter < 0. || p.jitter > 1. then
    invalid_arg "Retry: backoff jitter must be in [0, 1]"

let backoff_delay ?rng p ~failures =
  if failures < 1 then invalid_arg "Retry.backoff_delay: failures must be >= 1";
  validate p;
  (* Cap the exponent too: [factor ** big] overflows to infinity long after
     the cap has saturated the schedule, and [min] keeps that finite. *)
  let raw = p.base *. (p.factor ** float_of_int (min (failures - 1) 64)) in
  let d = Float.min p.cap raw in
  match rng with
  | None -> d
  | Some rng -> d *. (1. -. (p.jitter *. Rng.float rng))

let pause_of_backoff ?(sleep = Unix.sleepf) ?rng p ~failures =
  let d = backoff_delay ?rng p ~failures in
  if d > 0. then sleep d
