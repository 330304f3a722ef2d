type ('a, 'e) outcome =
  | First_try of 'a
  | Recovered of 'a * 'e list
  | Exhausted of 'e list

let with_escalation ~ladder f =
  match ladder with
  | [] -> invalid_arg "Retry.with_escalation: empty ladder"
  | _ ->
    let rec go errors = function
      | [] -> Exhausted (List.rev errors)
      | level :: rest -> (
        match f level with
        | Ok x ->
          if errors = [] then First_try x else Recovered (x, List.rev errors)
        | Error e -> go (e :: errors) rest)
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
