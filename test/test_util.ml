module Interp = Aging_util.Interp
module Stats = Aging_util.Stats
module Rng = Aging_util.Rng
module Retry = Aging_util.Retry
module Tablefmt = Aging_util.Tablefmt
module Units = Aging_util.Units
module Pool = Aging_util.Pool

let check = Alcotest.(check (float 1e-9))
let xs = [| 0.; 1.; 2.; 4. |]
let ys = [| 0.; 10.; 20.; 40. |]

let test_linear_grid_points () =
  Array.iteri (fun i x -> check "grid point" ys.(i) (Interp.linear xs ys x)) xs

let test_linear_midpoint () =
  check "midpoint" 5. (Interp.linear xs ys 0.5);
  check "midpoint" 30. (Interp.linear xs ys 3.)

let test_linear_extrapolation () =
  check "below" (-10.) (Interp.linear xs ys (-1.));
  check "above" 50. (Interp.linear xs ys 5.)

let test_bracket () =
  Alcotest.(check int) "below grid" 0 (Interp.bracket xs (-5.));
  Alcotest.(check int) "above grid" 2 (Interp.bracket xs 100.);
  Alcotest.(check int) "interior" 1 (Interp.bracket xs 1.5);
  Alcotest.check_raises "too short" (Invalid_argument "Interp.bracket: axis needs >= 2 points")
    (fun () -> ignore (Interp.bracket [| 1. |] 0.))

let test_bilinear () =
  let rows = [| 0.; 1. |] and cols = [| 0.; 2. |] in
  let z = [| [| 0.; 2. |]; [| 4.; 6. |] |] in
  check "corner" 0. (Interp.bilinear ~rows ~cols z 0. 0.);
  check "corner" 6. (Interp.bilinear ~rows ~cols z 1. 2.);
  check "center" 3. (Interp.bilinear ~rows ~cols z 0.5 1.);
  check "edge midpoint" 1. (Interp.bilinear ~rows ~cols z 0. 1.)

let test_monotone () =
  Alcotest.(check bool) "increasing" true (Interp.monotone_increasing xs);
  Alcotest.(check bool) "flat" false (Interp.monotone_increasing [| 1.; 1. |]);
  Alcotest.(check bool) "decreasing" false (Interp.monotone_increasing [| 2.; 1. |])

let prop_linear_bounded =
  Fixtures.qtest "linear stays within segment bounds"
    QCheck2.Gen.(float_range 0. 4.)
    (fun x ->
      let v = Interp.linear xs ys x in
      v >= 0. -. 1e-9 && v <= 40. +. 1e-9)

let prop_bilinear_bounded =
  let rows = [| 0.; 1.; 2. |] and cols = [| 0.; 1. |] in
  let z = [| [| 1.; 5. |]; [| 2.; 3. |]; [| 0.; 7. |] |] in
  Fixtures.qtest "bilinear within value bounds inside grid"
    QCheck2.Gen.(pair (float_range 0. 2.) (float_range 0. 1.))
    (fun (r, c) ->
      let v = Interp.bilinear ~rows ~cols z r c in
      v >= 0. -. 1e-9 && v <= 7. +. 1e-9)

let test_stats_basic () =
  check "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check "stddev" 0. (Stats.stddev [ 5.; 5. ]);
  check "stddev of alternating +-1" 1. (Stats.stddev [ 1.; 3.; 1.; 3. ]);
  let lo, hi = Stats.min_max [ 3.; -1.; 7. ] in
  check "min" (-1.) lo;
  check "max" 7. hi;
  check "geomean" 2. (Stats.geometric_mean [ 1.; 2.; 4. ])

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check "p0" 1. (Stats.percentile 0. xs);
  check "p50" 3. (Stats.percentile 50. xs);
  check "p100" 5. (Stats.percentile 100. xs);
  check "p25" 2. (Stats.percentile 25. xs)

let test_histogram () =
  let h = Stats.histogram ~lo:0. ~hi:10. ~bins:5 [ 0.5; 1.; 9.9; -3.; 42. ] in
  Alcotest.(check int) "total count" 5 (Array.fold_left ( + ) 0 h.Stats.counts);
  Alcotest.(check int) "first bin has clamped low outlier" 3 h.Stats.counts.(0);
  Alcotest.(check int) "last bin has clamped high outlier" 2 h.Stats.counts.(4)

let test_histogram_nan () =
  let h = Stats.histogram ~lo:0. ~hi:10. ~bins:5 [ 1.; Float.nan; 9. ] in
  Alcotest.(check int) "NaN lands in no bin" 2
    (Array.fold_left ( + ) 0 h.Stats.counts);
  Alcotest.(check int) "NaN does not pollute bin 0" 1 h.Stats.counts.(0);
  Alcotest.(check int) "NaN counted separately" 1 h.Stats.nan_count;
  let clean = Stats.histogram ~lo:0. ~hi:10. ~bins:5 [ 1.; 9. ] in
  Alcotest.(check int) "clean sample has no NaNs" 0 clean.Stats.nan_count

let test_fraction_below () =
  check "empty" 0. (Stats.fraction_below 0. []);
  check "half" 0.5 (Stats.fraction_below 0. [ -1.; 1. ])

let test_stats_errors () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean []));
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Stats.percentile: p outside [0,100]") (fun () ->
      ignore (Stats.percentile 101. [ 1. ]))

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" true (Rng.int64 a <> Rng.int64 b)

let prop_rng_float_range =
  Fixtures.qtest "float in [0,1)"
    QCheck2.Gen.(int64)
    (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng in
      x >= 0. && x < 1.)

let prop_rng_int_range =
  Fixtures.qtest "int in bounds"
    QCheck2.Gen.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_retry_first_try () =
  match Retry.with_escalation ~ladder:[ 1; 2; 3 ] (fun lvl -> Ok (10 * lvl)) with
  | Retry.First_try v ->
    Alcotest.(check int) "base rung used" 10 v
  | _ -> Alcotest.fail "expected First_try"

let test_retry_recovers () =
  let attempts = ref [] in
  let outcome =
    Retry.with_escalation ~ladder:[ 0; 1; 2 ] (fun lvl ->
        attempts := lvl :: !attempts;
        if lvl < 2 then Error (Printf.sprintf "rung %d failed" lvl) else Ok lvl)
  in
  (match outcome with
  | Retry.Recovered (v, errors) ->
    Alcotest.(check int) "succeeded on last rung" 2 v;
    Alcotest.(check (list string)) "errors in attempt order"
      [ "rung 0 failed"; "rung 1 failed" ] errors
  | _ -> Alcotest.fail "expected Recovered");
  Alcotest.(check (list int)) "every rung tried once" [ 0; 1; 2 ] (List.rev !attempts);
  Alcotest.(check int) "attempts counted" 3 (Retry.attempts outcome)

let test_retry_exhausted () =
  let outcome =
    Retry.with_escalation ~ladder:[ "a"; "b" ] (fun lvl -> Error (lvl ^ "!"))
  in
  (match outcome with
  | Retry.Exhausted errors ->
    Alcotest.(check (list string)) "all errors kept" [ "a!"; "b!" ] errors
  | _ -> Alcotest.fail "expected Exhausted");
  Alcotest.(check bool) "no success value" true (Retry.succeeded outcome = None);
  Alcotest.check_raises "empty ladder"
    (Invalid_argument "Retry.with_escalation: empty ladder") (fun () ->
      ignore (Retry.with_escalation ~ladder:[] (fun _ -> Ok ())))

let test_retry_stops_at_success () =
  let calls = ref 0 in
  let outcome =
    Retry.with_escalation ~ladder:[ 0; 1; 2; 3 ] (fun lvl ->
        incr calls;
        if lvl = 1 then Ok "done" else Error lvl)
  in
  Alcotest.(check int) "no attempts after success" 2 !calls;
  Alcotest.(check bool) "value" true (Retry.succeeded outcome = Some "done");
  Alcotest.(check (list int)) "errors before success" [ 0 ] (Retry.errors outcome)

let test_tablefmt () =
  let s = Tablefmt.render ~header:[ "name"; "value" ] [ [ "x"; "12" ]; [ "longer"; "3" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_pp () =
  Alcotest.(check string) "pp_ps" "12.5 ps" (Format.asprintf "%a" Units.pp_ps 12.5e-12);
  Alcotest.(check string) "pp_percent" "+19.0 %" (Format.asprintf "%a" Units.pp_percent 0.19)

let test_units () =
  check "ps roundtrip" 12.5 (Units.ps (Units.of_ps 12.5));
  check "ff roundtrip" 3.5 (Units.ff (Units.of_ff 3.5));
  check "nm" 45e-9 (Units.of_nm 45.);
  check "um2" 1. (Units.um2 1e-12)

let range n = List.init n (fun i -> i)

let test_pool_matches_sequential () =
  let f x = (x * x) + 1 in
  let xs = range 37 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals List.map" jobs)
        (List.map f xs)
        (Pool.map ~jobs f xs))
    [ 1; 2; 3; 4; 8; 64 ]

let test_pool_edge_inputs () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map ~jobs:4 succ [ 7 ]);
  Alcotest.(check (list int)) "fewer items than jobs" [ 1; 2 ]
    (Pool.map ~jobs:16 succ [ 0; 1 ])

let test_pool_exception_lowest_index () =
  (* Both index 3 and index 7 raise; the propagated exception must be the
     lowest-index one regardless of which domain finishes first. *)
  Alcotest.check_raises "lowest index wins" (Failure "item 3") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x ->
             if x = 3 || x = 7 then failwith (Printf.sprintf "item %d" x)
             else x)
           (range 12)))

let test_pool_nested () =
  (* A worker calling Pool.map again must not spawn a second tier of
     domains; the nested map runs sequentially and the composite result is
     still the sequential one. *)
  let expected =
    List.map (fun i -> List.map (fun j -> (10 * i) + j) (range 4)) (range 6)
  in
  let got =
    Pool.map ~jobs:3
      (fun i -> Pool.map ~jobs:3 (fun j -> (10 * i) + j) (range 4))
      (range 6)
  in
  Alcotest.(check (list (list int))) "nested map sequentialized" expected got

let test_pool_default_jobs () =
  Alcotest.(check bool) "default is at least 1" true (Pool.default_jobs () >= 1)

(* Spins until [ready ()] or the absolute [deadline] (Unix time) passes;
   returns whether [ready ()] held.  Pool tests use it to wait for other
   domains without depending on scheduling luck. *)
let wait_until ~deadline ready =
  let rec go () =
    if ready () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let test_pool_reusable_after_failure () =
  (* Regression: a worker raising mid-drain used to leave the pool's
     nesting latch set and domains unjoined, so the next map on the same
     domain ran sequentially (or tripped over dangling state).  After a
     failed map the pool must be fully reusable — and actually parallel. *)
  Alcotest.check_raises "failure still propagates" (Failure "boom") (fun () ->
      ignore
        (Pool.map ~jobs:4 (fun x -> if x = 3 then failwith "boom" else x)
           (range 8)));
  Alcotest.(check (list int)) "next map is correct"
    (List.map succ (range 16))
    (Pool.map ~jobs:4 succ (range 16));
  (* Rendezvous: every item waits until two distinct domains have claimed
     items.  A latch left set would run the map sequentially on this
     domain, and the first item would wait out the deadline. *)
  let claimers = Atomic.make [] in
  let rec claim id =
    let cur = Atomic.get claimers in
    if not (List.mem id cur) then
      if not (Atomic.compare_and_set claimers cur (id :: cur)) then claim id
  in
  let deadline = Unix.gettimeofday () +. 5. in
  let met =
    Pool.map ~jobs:4
      (fun _ ->
        claim (Domain.self () :> int);
        wait_until ~deadline (fun () -> List.length (Atomic.get claimers) >= 2))
      (range 16)
  in
  Alcotest.(check bool) "next map runs on several domains again" true
    (List.for_all Fun.id met)

let test_pool_balances_skewed_input () =
  (* Item 0 blocks until every other item has finished.  With item-by-item
     claiming the other domain drains the rest meanwhile; a pool that
     pre-assigned contiguous chunks would leave items 1..3 queued behind
     item 0 on the same domain, and the wait would time out. *)
  let n = 8 in
  let finished = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 5. in
  let saw_all = ref false in
  let f i =
    if i = 0 then
      saw_all :=
        wait_until ~deadline (fun () -> Atomic.get finished = n - 1)
    else Atomic.incr finished;
    (i * i) + 1
  in
  let got = Pool.map ~jobs:2 f (range n) in
  Alcotest.(check bool) "item 0 saw every other item finish" true !saw_all;
  Alcotest.(check (list int)) "equals List.map"
    (List.map (fun i -> (i * i) + 1) (range n))
    got

(* ------------------------------ backoff ------------------------------ *)

let test_backoff_delay () =
  let b =
    { Retry.base = 0.1; factor = 2.; cap = 0.5; jitter = 0. }
  in
  check "1st failure" 0.1 (Retry.backoff_delay b ~failures:1);
  check "2nd doubles" 0.2 (Retry.backoff_delay b ~failures:2);
  check "3rd doubles again" 0.4 (Retry.backoff_delay b ~failures:3);
  check "4th capped" 0.5 (Retry.backoff_delay b ~failures:4);
  check "stays capped" 0.5 (Retry.backoff_delay b ~failures:20)

let test_backoff_jitter_deterministic () =
  let b =
    { Retry.base = 0.1; factor = 2.; cap = 10.; jitter = 0.5 }
  in
  let d1 = Retry.backoff_delay ~rng:(Rng.create 7L) b ~failures:3 in
  let d2 = Retry.backoff_delay ~rng:(Rng.create 7L) b ~failures:3 in
  check "same seed, same dithered delay" d1 d2;
  Alcotest.(check bool) "within the jitter band" true
    (d1 <= 0.4 && d1 >= 0.4 *. 0.5);
  let d3 = Retry.backoff_delay ~rng:(Rng.create 8L) b ~failures:3 in
  Alcotest.(check bool) "different seed dithers differently" true (d1 <> d3)

(* The pacing characterization uses: [pause_of_backoff] between escalation
   rungs sleeps the undithered schedule before every re-attempt and never
   before the first.  A recording [sleep] keeps the test from sleeping. *)
let test_escalation_paced_by_backoff () =
  let b = { Retry.base = 0.1; factor = 2.; cap = 10.; jitter = 0. } in
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let outcome =
    Retry.with_escalation
      ~pause:(Retry.pause_of_backoff ~sleep b)
      ~ladder:[ 0; 1; 2; 3 ]
      (fun lvl -> if lvl = 3 then Ok "done" else Error lvl)
  in
  Alcotest.(check (list int)) "failed rungs recorded" [ 0; 1; 2 ]
    (Retry.errors outcome);
  Alcotest.(check (list (float 1e-9))) "one pause per re-attempt"
    [ 0.1; 0.2; 0.4 ] (List.rev !slept)

(* -------------------------------- lru -------------------------------- *)

module Lru = Aging_util.Lru

let test_lru_eviction_order () =
  let c = Lru.create ~cap:2 in
  Alcotest.(check bool) "no eviction below cap" true (Lru.put c "a" 1 = None);
  Alcotest.(check bool) "no eviction at cap" true (Lru.put c "b" 2 = None);
  (* touch "a" so "b" becomes the eviction victim *)
  Alcotest.(check bool) "find hits and promotes" true (Lru.find c "a" = Some 1);
  Alcotest.(check bool) "lru binding handed back" true
    (Lru.put c "c" 3 = Some ("b", 2));
  Alcotest.(check bool) "victim gone" false (Lru.mem c "b");
  Alcotest.(check bool) "promoted survivor present" true (Lru.mem c "a");
  Alcotest.(check int) "length at cap" 2 (Lru.length c);
  Alcotest.(check bool) "mru first" true
    (Lru.to_list c = [ ("c", 3); ("a", 1) ]);
  Alcotest.check_raises "cap validated"
    (Invalid_argument "Lru.create: cap must be >= 1") (fun () ->
      ignore (Lru.create ~cap:0))

let test_lru_replace_promotes () =
  let c = Lru.create ~cap:2 in
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  (* replacing "a" promotes it and never evicts *)
  Alcotest.(check bool) "replace evicts nothing" true (Lru.put c "a" 9 = None);
  Alcotest.(check bool) "replaced value" true (Lru.find c "a" = Some 9);
  Alcotest.(check bool) "replacement made b the victim" true
    (Lru.put c "c" 3 = Some ("b", 2))

let test_lru_remove_clear () =
  let c = Lru.create ~cap:4 in
  ignore (Lru.put c 1 "one");
  ignore (Lru.put c 2 "two");
  Lru.remove c 1;
  Alcotest.(check bool) "removed" false (Lru.mem c 1);
  Alcotest.(check int) "length after remove" 1 (Lru.length c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check bool) "cap unchanged" true (Lru.cap c = 4)

let suite =
  [
    ("interp: grid points", `Quick, test_linear_grid_points);
    ("interp: midpoint", `Quick, test_linear_midpoint);
    ("interp: extrapolation", `Quick, test_linear_extrapolation);
    ("interp: bracket", `Quick, test_bracket);
    ("interp: bilinear", `Quick, test_bilinear);
    ("interp: monotone check", `Quick, test_monotone);
    ("stats: basics", `Quick, test_stats_basic);
    ("stats: percentile", `Quick, test_percentile);
    ("stats: histogram clamps", `Quick, test_histogram);
    ("stats: histogram skips NaN", `Quick, test_histogram_nan);
    ("stats: fraction below", `Quick, test_fraction_below);
    ("stats: errors", `Quick, test_stats_errors);
    ("rng: deterministic", `Quick, test_rng_deterministic);
    ("rng: split", `Quick, test_rng_split);
    ("retry: first try", `Quick, test_retry_first_try);
    ("retry: recovers after escalation", `Quick, test_retry_recovers);
    ("retry: exhausted ladder", `Quick, test_retry_exhausted);
    ("retry: stops at first success", `Quick, test_retry_stops_at_success);
    ("tablefmt: layout", `Quick, test_tablefmt);
    ("units: conversions", `Quick, test_units);
    ("units: pretty printers", `Quick, test_pp);
    ("pool: matches sequential map", `Quick, test_pool_matches_sequential);
    ("pool: edge inputs", `Quick, test_pool_edge_inputs);
    ("pool: lowest-index exception", `Quick, test_pool_exception_lowest_index);
    ("pool: nested maps sequentialize", `Quick, test_pool_nested);
    ("pool: default jobs", `Quick, test_pool_default_jobs);
    ("pool: reusable after a worker raises", `Quick,
     test_pool_reusable_after_failure);
    ("pool: balances a skewed input", `Quick, test_pool_balances_skewed_input);
    ("backoff: capped exponential delays", `Quick, test_backoff_delay);
    ("backoff: deterministic jitter", `Quick, test_backoff_jitter_deterministic);
    ("backoff: paces escalation rungs", `Quick,
     test_escalation_paced_by_backoff);
    ("lru: eviction order", `Quick, test_lru_eviction_order);
    ("lru: replace promotes", `Quick, test_lru_replace_promotes);
    ("lru: remove and clear", `Quick, test_lru_remove_clear);
  ]

let props = [ prop_linear_bounded; prop_bilinear_bounded; prop_rng_float_range; prop_rng_int_range ]
