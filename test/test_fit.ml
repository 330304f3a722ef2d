(* Property and unit tests for the pure-OCaml regression kernel behind
   surrogate characterization: exact recovery of low-degree polynomials,
   determinism (bitwise, and across worker counts), confidence growth
   away from the training hull, and typed errors on degenerate designs.
   Every fit is relative, so every target here is positive. *)

module Ridge = Aging_fit.Ridge
module Linalg = Aging_fit.Linalg
module Pool = Aging_util.Pool
module Rng = Aging_util.Rng

let uniform rng lo hi = lo +. ((hi -. lo) *. Rng.float rng)

(* Deterministic scattered 2-D training set covering [-1, 2] x [0, 3]. *)
let training_rows n seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> [| uniform rng (-1.) 2.; uniform rng 0. 3. |])

(* A quadratic in (a, b) from coefficients for 1, a, b, a^2, ab, b^2,
   shifted by [offset]; on the training box every monomial is below 9 in
   magnitude, so an offset of 100 keeps coefficients in [-3, 3]
   positive. *)
let apply_poly ?(offset = 0.) coeffs x =
  let a = x.(0) and b = x.(1) in
  offset +. coeffs.(0) +. (coeffs.(1) *. a) +. (coeffs.(2) *. b)
  +. (coeffs.(3) *. a *. a)
  +. (coeffs.(4) *. a *. b)
  +. (coeffs.(5) *. b *. b)

let fit_exn ?lambda ~degrees rows targets =
  match Ridge.fit ?lambda ~degrees ~rows ~targets () with
  | Ok m -> m
  | Error e -> Alcotest.failf "unexpected fit error: %s" (Ridge.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let test_linalg_solve () =
  (* A known well-conditioned 3x3 system, factored once and solved for
     two right-hand sides. *)
  let a = [| 4.; 1.; 0.; 1.; 3.; 1.; 0.; 1.; 2. |] in
  let piv = Array.make 3 0 in
  Alcotest.(check bool) "factored" true (Linalg.lu_factor a piv 3);
  List.iter
    (fun x_true ->
      let b =
        [|
          (4. *. x_true.(0)) +. x_true.(1);
          x_true.(0) +. (3. *. x_true.(1)) +. x_true.(2);
          x_true.(1) +. (2. *. x_true.(2));
        |]
      in
      Linalg.lu_solve a piv 3 b;
      Array.iteri
        (fun i v -> Fixtures.check_close ~tol:1e-12 "solution" x_true.(i) v)
        b)
    [ [| 1.; -2.; 3. |]; [| 0.5; 0.; -1. |] ]

let test_linalg_singular () =
  let a = [| 1.; 2.; 2.; 4. |] in
  Alcotest.(check bool)
    "singular detected" false
    (Linalg.lu_factor a (Array.make 2 0) 2)

(* ------------------------------------------------------------------ *)
(* Exact recovery                                                      *)
(* ------------------------------------------------------------------ *)

let test_exact_quadratic () =
  let coeffs = [| 0.7; -1.3; 2.1; 0.4; -0.9; 1.6 |] in
  let rows = training_rows 24 5L in
  let targets = Array.map (apply_poly ~offset:100. coeffs) rows in
  let m = fit_exn ~lambda:0. ~degrees:[| 2; 2 |] rows targets in
  let probes = training_rows 10 6L in
  Array.iter
    (fun x ->
      Fixtures.check_close ~tol:1e-9 "quadratic recovery"
        (apply_poly ~offset:100. coeffs x)
        (Ridge.predict m x))
    probes;
  (* Exact model: LOO residuals are numerically zero. *)
  Array.iter
    (fun r -> Alcotest.(check bool) "loo ~ 0" true (Float.abs r < 1e-9))
    (Ridge.loo_residuals m)

let test_exact_tensor () =
  (* f = (4 + 2a + a^3) * (4 - b): tensor degrees (3, 1), >= 1 on the
     training box. *)
  let f x =
    let a = x.(0) and b = x.(1) in
    (4. +. (2. *. a) +. (a ** 3.)) *. (4. -. b)
  in
  let rows = training_rows 30 7L in
  let targets = Array.map f rows in
  let m = fit_exn ~lambda:0. ~degrees:[| 3; 1 |] rows targets in
  Array.iter
    (fun x ->
      Fixtures.check_close ~tol:1e-9 "tensor recovery" (f x) (Ridge.predict m x))
    (training_rows 10 8L)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* Ratio-like targets, the shape the surrogate fits: near 1, with a
   smooth percent-level trend plus noise. *)
let noisy_targets rows seed =
  let rng = Rng.create seed in
  Array.map
    (fun x ->
      1.
      +. (0.01 *. apply_poly [| 1.; 0.5; -0.3; 0.2; 0.1; -0.4 |] x)
      +. uniform rng (-1e-4) 1e-4)
    rows

let test_fit_bitwise_deterministic () =
  let rows = training_rows 20 11L in
  let targets = noisy_targets rows 12L in
  let m1 = fit_exn ~degrees:[| 2; 2 |] rows targets in
  let m2 = fit_exn ~degrees:[| 2; 2 |] rows targets in
  let probes = training_rows 16 13L in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "bitwise equal prediction" true
        (Ridge.predict m1 x = Ridge.predict m2 x);
      Alcotest.(check bool) "bitwise equal confidence" true
        (Ridge.confidence m1 x = Ridge.confidence m2 x))
    probes

let test_fit_deterministic_across_jobs () =
  (* The kernel is sequential inside one work unit; fanning identical
     fits over worker domains must return bitwise-identical models —
     the invariant `--jobs` relies on. *)
  let rows = training_rows 20 21L in
  let targets = noisy_targets rows 22L in
  let probes = training_rows 8 23L in
  let run () =
    let m = fit_exn ~degrees:[| 2; 2 |] rows targets in
    Array.map (fun x -> (Ridge.predict m x, Ridge.confidence m x)) probes
  in
  let sequential = run () in
  let parallel = Pool.map ~jobs:4 (fun _ -> run ()) [ 0; 1; 2; 3 ] in
  List.iter
    (fun r -> Alcotest.(check bool) "jobs-invariant" true (r = sequential))
    parallel

let test_permutation_invariant () =
  let rows = training_rows 18 31L in
  let targets = noisy_targets rows 32L in
  let n = Array.length rows in
  (* Deterministic shuffle. *)
  let perm = Array.init n Fun.id in
  let rng = Rng.create 33L in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let rows' = Array.map (fun i -> rows.(i)) perm in
  let targets' = Array.map (fun i -> targets.(i)) perm in
  let m1 = fit_exn ~degrees:[| 2; 2 |] rows targets in
  let m2 = fit_exn ~degrees:[| 2; 2 |] rows' targets' in
  Array.iter
    (fun x ->
      let p1 = Ridge.predict m1 x and p2 = Ridge.predict m2 x in
      Fixtures.check_close ~tol:1e-9 "permutation-invariant prediction" p1 p2)
    (training_rows 12 34L)

(* ------------------------------------------------------------------ *)
(* Confidence grows away from the hull                                 *)
(* ------------------------------------------------------------------ *)

(* Relative leverage scales with |phi|^2 / prediction^2, so along a ray it
   keeps growing only while the basis outgrows the prediction: the
   confidence tests use a bilinear basis on percent-level trends, the
   surrogate's regime. *)
let test_confidence_widens () =
  let rows = training_rows 20 41L in
  let targets = noisy_targets rows 42L in
  let m = fit_exn ~degrees:[| 1; 1 |] rows targets in
  (* Center of the training box is (0.5, 1.5); walk a ray outward with
     doubling distances well past the hull. *)
  let at t = [| 0.5 +. (t *. 1.); 1.5 +. (t *. 0.7) |] in
  let prev = ref (Ridge.confidence m (at 2.)) in
  List.iter
    (fun t ->
      let c = Ridge.confidence m (at t) in
      Alcotest.(check bool)
        (Printf.sprintf "confidence at t=%g grows" t)
        true
        (c >= !prev *. (1. -. 1e-9));
      prev := c)
    [ 4.; 8.; 16.; 32. ];
  (* And the hull interior is tighter than far outside. *)
  Alcotest.(check bool) "interior tighter than far field" true
    (Ridge.confidence m [| 0.5; 1.5 |] < Ridge.confidence m (at 32.))

(* Regression: a relative fit on tiny absolute targets (delay-like,
   ~1e-10 s) builds its normal matrix from ~1e10-weighted rows, so an
   unweighted query basis would read leverage ~ y^2 ~ 0 and the interval
   would never widen off the hull.  The query is weighted by its own
   prediction inside [confidence]. *)
let test_weighted_confidence_widens () =
  let rows = training_rows 20 41L in
  let scale = 1e-10 in
  let rng = Rng.create 91L in
  let targets =
    Array.map
      (fun x ->
        (* Positive on the training box and along the probe ray. *)
        scale
        *. (2. +. x.(0) +. (0.5 *. x.(1)) +. (0.01 *. uniform rng (-1.) 1.)))
      rows
  in
  let m = fit_exn ~degrees:[| 1; 1 |] rows targets in
  let at t = [| 0.5 +. t; 1.5 +. (0.7 *. t) |] in
  let prev = ref (Ridge.confidence m (at 2.)) in
  List.iter
    (fun t ->
      let c = Ridge.confidence m (at t) in
      Alcotest.(check bool)
        (Printf.sprintf "weighted confidence at t=%g grows" t)
        true
        (c >= !prev *. (1. -. 1e-9));
      prev := c)
    [ 4.; 8.; 16.; 32. ];
  Alcotest.(check bool) "weighted interior tighter than far field" true
    (Ridge.confidence m [| 0.5; 1.5 |] < Ridge.confidence m (at 32.))

(* ------------------------------------------------------------------ *)
(* Typed errors on degenerate designs                                  *)
(* ------------------------------------------------------------------ *)

let test_degenerate_duplicate_rows () =
  (* Collinear features (x2 = x1): rank-deficient normal matrix with
     lambda = 0 must surface as Singular, never as NaN coefficients. *)
  let rows = Array.init 9 (fun i -> [| float_of_int i; float_of_int i |]) in
  let targets = Array.map (fun x -> 1. +. x.(0)) rows in
  (match Ridge.fit ~lambda:0. ~degrees:[| 1; 1 |] ~rows ~targets () with
  | Error Ridge.Singular -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ridge.error_to_string e)
  | Ok m ->
    (* If a pivot survived rounding, the fit must still be finite. *)
    Alcotest.(check bool) "no NaN escape" true
      (Float.is_finite (Ridge.predict m [| 1.; 1. |])));
  (* Ridge regularization makes the same design well-posed. *)
  let m = fit_exn ~lambda:1e-6 ~degrees:[| 1; 1 |] rows targets in
  Alcotest.(check bool) "ridge prediction finite" true
    (Float.is_finite (Ridge.predict m [| 4.; 4. |]))

let test_non_finite_row () =
  let rows = [| [| 0.; 1. |]; [| Float.nan; 2. |]; [| 2.; 3. |] |] in
  (match Ridge.fit ~degrees:[| 1; 1 |] ~rows ~targets:[| 1.; 2.; 3. |] () with
  | Error (Ridge.Non_finite { row = 1 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ridge.error_to_string e)
  | Ok _ -> Alcotest.fail "NaN row not detected");
  (* Relative error is undefined for a non-positive target. *)
  let rows = [| [| 0.; 1. |]; [| 1.; 2. |]; [| 2.; 3. |] |] in
  match Ridge.fit ~degrees:[| 1; 1 |] ~rows ~targets:[| 1.; 2.; 0. |] () with
  | Error (Ridge.Non_finite { row = 2 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ridge.error_to_string e)
  | Ok _ -> Alcotest.fail "zero target not detected"

let test_too_few_rows () =
  let rows = training_rows 4 51L in
  let targets = Array.map (fun x -> 2. +. x.(0)) rows in
  match Ridge.fit ~lambda:0. ~degrees:[| 2; 1 |] ~rows ~targets () with
  | Error (Ridge.Too_few_rows { rows = 4; params = 6 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ridge.error_to_string e)
  | Ok _ -> Alcotest.fail "under-determined LS design not detected"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let coeff_gen = QCheck2.Gen.float_range (-3.) 3.

let prop_recovers_random_quadratics =
  Fixtures.qtest ~count:60 "random quadratics recovered to 1e-9"
    QCheck2.Gen.(array_size (return 6) coeff_gen)
    (fun coeffs ->
      let f = apply_poly ~offset:100. coeffs in
      let rows = training_rows 25 77L in
      let targets = Array.map f rows in
      match Ridge.fit ~lambda:0. ~degrees:[| 2; 2 |] ~rows ~targets () with
      | Error _ -> false
      | Ok m ->
        Array.for_all
          (fun x -> Float.abs (Ridge.predict m x -. f x) /. f x < 1e-9)
          (training_rows 8 78L))

let prop_confidence_monotone_on_rays =
  Fixtures.qtest ~count:60 "confidence widens along random outward rays"
    QCheck2.Gen.(pair (float_range 0. 6.28) (int_range 0 1000))
    (fun (angle, salt) ->
      let rows = training_rows 20 (Int64.of_int (101 + salt)) in
      let targets = noisy_targets rows (Int64.of_int (202 + salt)) in
      match Ridge.fit ~degrees:[| 1; 1 |] ~rows ~targets () with
      | Error _ -> false
      | Ok m ->
        let dx = cos angle and dy = sin angle in
        let at t = [| 0.5 +. (t *. dx); 1.5 +. (t *. dy) |] in
        let ok = ref true in
        let prev = ref (Ridge.confidence m (at 3.)) in
        List.iter
          (fun t ->
            let c = Ridge.confidence m (at t) in
            if c < !prev *. (1. -. 1e-9) then ok := false;
            prev := c)
          [ 6.; 12.; 24. ];
        !ok)

let suite =
  [
    ("linalg: solve", `Quick, test_linalg_solve);
    ("linalg: singular", `Quick, test_linalg_singular);
    ("ridge: exact quadratic recovery", `Quick, test_exact_quadratic);
    ("ridge: exact tensor recovery", `Quick, test_exact_tensor);
    ("ridge: bitwise deterministic", `Quick, test_fit_bitwise_deterministic);
    ("ridge: deterministic across jobs", `Quick,
     test_fit_deterministic_across_jobs);
    ("ridge: permutation invariant", `Quick, test_permutation_invariant);
    ("ridge: confidence widens off-hull", `Quick, test_confidence_widens);
    ("ridge: weighted confidence widens off-hull", `Quick,
     test_weighted_confidence_widens);
    ("ridge: collinear design typed error", `Quick,
     test_degenerate_duplicate_rows);
    ("ridge: non-finite typed error", `Quick, test_non_finite_row);
    ("ridge: too few rows typed error", `Quick, test_too_few_rows);
  ]

let props = [ prop_recovers_random_quadratics; prop_confidence_monotone_on_rays ]
