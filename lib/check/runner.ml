module Rng = Aging_util.Rng
module Stats = Aging_util.Stats
module Span = Aging_obs.Span
module Tree = QCheck2.Tree

type 'a property = 'a -> (unit, string) result

type failure = {
  case_index : int;
  case_seed : int64;
  shrink_steps : int;
  counterexample : string;
  message : string;
}

type outcome = {
  name : string;
  cases_run : int;
  failures : failure list;
  wall_s : float;
  case_s : float list;
}

let eval prop x =
  match prop x with
  | Ok () -> None
  | Error msg -> Some msg
  | exception e ->
    Some
      (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e))

(* Greedy depth-first shrink: repeatedly move to the first child that
   still fails, until no child fails or the budget runs out. *)
let shrink prop tree first_msg max_shrinks =
  let failing c = Option.map (fun m -> (c, m)) (eval prop (Tree.root c)) in
  let rec go t msg steps =
    match
      if steps >= max_shrinks then None
      else Seq.find_map failing (Tree.children t)
    with
    | None -> (Tree.root t, msg, steps)
    | Some (c, m) -> go c m (steps + 1)
  in
  go tree first_msg 0

(* Both 32-bit halves of the case seed feed the generator's state, so
   distinct case seeds give distinct draws. *)
let random_state seed =
  Random.State.make
    [|
      Int64.to_int (Int64.logand seed 0xFFFF_FFFFL);
      Int64.to_int (Int64.shift_right_logical seed 32);
    |]

let generate_tree ~seed gen =
  QCheck2.Gen.generate_tree ~rand:(random_state seed) gen

let generate ~seed gen = Tree.root (generate_tree ~seed gen)

let run ?(cases = 100) ?(max_shrinks = 500) ~seed ~name ~print ~gen prop =
  let t0 = Span.elapsed () in
  let case_s = ref [] in
  let failures = ref [] in
  let i = ref 0 in
  while !i < cases && !failures = [] do
    let case_seed = Rng.derive seed !i in
    let c0 = Span.elapsed () in
    let tree = generate_tree ~seed:case_seed gen in
    (match eval prop (Tree.root tree) with
    | None -> ()
    | Some msg ->
      let min_x, min_msg, steps = shrink prop tree msg max_shrinks in
      failures :=
        [
          {
            case_index = !i;
            case_seed;
            shrink_steps = steps;
            counterexample = print min_x;
            message = min_msg;
          };
        ]);
    case_s := (Span.elapsed () -. c0) :: !case_s;
    incr i
  done;
  {
    name;
    cases_run = !i;
    failures = !failures;
    wall_s = Span.elapsed () -. t0;
    case_s = List.rev !case_s;
  }

let passed o = o.failures = []

let time_summary o =
  match o.case_s with
  | [] -> "-"
  | ts ->
    Printf.sprintf "mean %.2fms p95 %.2fms" (Stats.mean ts *. 1e3)
      (Stats.percentile 95. ts *. 1e3)

let pp_failure name f =
  Printf.sprintf
    "  FAILED case %d (after %d shrink steps)\n\
    \    counterexample: %s\n\
    \    reason: %s\n\
    \    replay: relaware check --only %s --seed=%Ld --cases 1\n"
    f.case_index f.shrink_steps f.counterexample f.message name f.case_seed

let pp_outcome o =
  let status = if passed o then "ok" else "FAIL" in
  let head =
    Printf.sprintf "%-22s %4s  %4d cases  %6.2fs  (%s)" o.name status
      o.cases_run o.wall_s (time_summary o)
  in
  String.concat "\n" (head :: List.map (pp_failure o.name) o.failures)
