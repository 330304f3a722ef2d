(* Inclusive/self-time profile aggregated from span trees.

   Self time telescopes: a span's self time is its duration minus the sum
   of its direct children's durations (not clamped — measurement overhead
   can make it marginally negative), so summed over a whole tree the self
   times reproduce the root's duration exactly.  That identity is the
   profile's sanity check: "self" columns account for all recorded time,
   with no double counting. *)

module Stats = Aging_util.Stats
module Tablefmt = Aging_util.Tablefmt

type row = {
  name : string;
  count : int;
  total_s : float;  (* inclusive *)
  self_s : float;
  p50_s : float;
  p95_s : float;
}

let of_spans roots =
  let acc : (string, float list ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let cell name =
    match Hashtbl.find_opt acc name with
    | Some c -> c
    | None ->
      let c = (ref [], ref 0.) in
      Hashtbl.add acc name c;
      c
  in
  let rec walk (s : Span.t) =
    let children_total =
      List.fold_left (fun t (c : Span.t) -> t +. c.Span.duration) 0.
        s.Span.children
    in
    let durations, self = cell s.Span.name in
    durations := s.Span.duration :: !durations;
    self := !self +. (s.Span.duration -. children_total);
    List.iter walk s.Span.children
  in
  List.iter walk roots;
  Hashtbl.fold
    (fun name (durations, self) rows ->
      let ds = List.rev !durations in
      {
        name;
        count = List.length ds;
        total_s = List.fold_left ( +. ) 0. ds;
        self_s = !self;
        p50_s = Stats.percentile 50. ds;
        p95_s = Stats.percentile 95. ds;
      }
      :: rows)
    acc []
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

let total_self rows = List.fold_left (fun t r -> t +. r.self_s) 0. rows
let total_roots roots =
  List.fold_left (fun t (s : Span.t) -> t +. s.Span.duration) 0. roots

let seconds f =
  if Float.is_nan f then "-"
  else if Float.abs f >= 1. then Tablefmt.fs "%.3f s" f
  else if Float.abs f >= 1e-3 then Tablefmt.fs "%.3f ms" (f *. 1e3)
  else Tablefmt.fs "%.3f us" (f *. 1e6)

let to_table ?(top = 0) rows =
  let shown = if top > 0 && List.length rows > top then
      (List.filteri (fun i _ -> i < top) rows)
    else rows
  in
  let all_self = total_self rows in
  let header = [ "span"; "count"; "total"; "self"; "self%"; "p50"; "p95" ] in
  let body =
    List.map
      (fun r ->
        [
          r.name;
          string_of_int r.count;
          seconds r.total_s;
          seconds r.self_s;
          (if all_self <> 0. then
             Tablefmt.fs "%.1f" (r.self_s /. all_self *. 100.)
           else "-");
          seconds r.p50_s;
          seconds r.p95_s;
        ])
      shown
  in
  Tablefmt.render ~align:[ Tablefmt.Left ] ~header body
