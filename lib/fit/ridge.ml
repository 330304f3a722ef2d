type error =
  | Too_few_rows of { rows : int; params : int }
  | Singular
  | Non_finite of { row : int }

let error_to_string = function
  | Too_few_rows { rows; params } ->
    Printf.sprintf "too few training rows (%d) for %d parameters" rows params
  | Singular -> "normal matrix is singular"
  | Non_finite { row } ->
    Printf.sprintf "non-finite feature or non-positive target in row %d" row

exception Err of error

type model = {
  dims : int;
  mean : float array;
  scale : float array;  (* 0. marks a pinned constant column *)
  exps : int array array;
  beta : float array;
  a_lu : float array;  (* factored (Phi'Phi + lambda R), m x m *)
  a_piv : int array;
  m : int;
  sigma : float;
  loo : float array;
}

(* Full tensor product with per-dimension caps, graded-lexicographic so
   the intercept (all zeros) comes first. *)
let tensor_exponents degrees =
  let sum = List.fold_left ( + ) 0 in
  let rec go = function
    | [] -> [ [] ]
    | d :: rest ->
      let tails = go rest in
      List.concat_map
        (fun e -> List.map (fun t -> e :: t) tails)
        (List.init (d + 1) Fun.id)
  in
  List.stable_sort
    (fun a b -> compare (sum a, a) (sum b, b))
    (go (Array.to_list degrees))
  |> List.map Array.of_list |> Array.of_list

let normalize mean scale x z =
  let dims = Array.length mean in
  for j = 0 to dims - 1 do
    z.(j) <- (if scale.(j) = 0. then 0. else (x.(j) -. mean.(j)) /. scale.(j))
  done

let eval_basis exps z out =
  Array.iteri
    (fun k e ->
      let v = ref 1. in
      for j = 0 to Array.length e - 1 do
        for _ = 1 to e.(j) do
          v := !v *. z.(j)
        done
      done;
      out.(k) <- !v)
    exps

let dot m a off_a b =
  let s = ref 0. in
  for j = 0 to m - 1 do
    s := !s +. (a.(off_a + j) *. b.(j))
  done;
  !s

let fit_exn ~lambda ~degrees ~rows:xs ~targets:ys =
  let n = Array.length xs in
  if n = 0 then raise (Err (Too_few_rows { rows = 0; params = 1 }));
  if Array.length ys <> n then
    invalid_arg "Ridge.fit: rows and targets disagree in length";
  (* Relative error: residual i is weighted by 1 / y_i. *)
  let weights = Array.map (fun y -> 1. /. y) ys in
  Array.iteri
    (fun i w ->
      if not (Float.is_finite w && w > 0.) then
        raise (Err (Non_finite { row = i })))
    weights;
  let dims = Array.length xs.(0) in
  if Array.length degrees <> dims then
    invalid_arg "Ridge.fit: degrees arity mismatch";
  Array.iteri
    (fun i r ->
      if Array.length r <> dims then
        invalid_arg "Ridge.fit: rows disagree in dimension";
      Array.iter
        (fun v ->
          if not (Float.is_finite v) then raise (Err (Non_finite { row = i })))
        r)
    xs;
  (* Column statistics. *)
  let mean = Array.make dims 0. and scale = Array.make dims 0. in
  let fn = float_of_int n in
  for j = 0 to dims - 1 do
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. xs.(i).(j)
    done;
    mean.(j) <- !s /. fn;
    let v = ref 0. in
    for i = 0 to n - 1 do
      let d = xs.(i).(j) -. mean.(j) in
      v := !v +. (d *. d)
    done;
    let sd = sqrt (!v /. fn) in
    scale.(j) <- (if sd < 1e-12 *. (Float.abs mean.(j) +. 1.) then 0. else sd)
  done;
  let exps = tensor_exponents degrees in
  let m = Array.length exps in
  if lambda <= 0. && n < m then
    raise (Err (Too_few_rows { rows = n; params = m }));
  (* Design matrix Phi (n x m, flat), each row scaled by its weight. *)
  let phi = Array.make (n * m) 0. in
  let z = Array.make dims 0. and tmp = Array.make m 0. in
  for i = 0 to n - 1 do
    normalize mean scale xs.(i) z;
    eval_basis exps z tmp;
    for j = 0 to m - 1 do
      phi.((i * m) + j) <- tmp.(j) *. weights.(i)
    done
  done;
  (* Normal matrix A = Phi'Phi + lambda R; R is the identity with the
     intercept (basis index 0) unpenalized. *)
  let a = Array.make (m * m) 0. in
  for i = 0 to n - 1 do
    let row = i * m in
    for j = 0 to m - 1 do
      let pj = phi.(row + j) in
      if pj <> 0. then
        for k = j to m - 1 do
          a.((j * m) + k) <- a.((j * m) + k) +. (pj *. phi.(row + k))
        done
    done
  done;
  for j = 0 to m - 1 do
    for k = 0 to j - 1 do
      a.((j * m) + k) <- a.((k * m) + j)
    done
  done;
  if lambda > 0. then
    for j = 1 to m - 1 do
      a.((j * m) + j) <- a.((j * m) + j) +. lambda
    done;
  let piv = Array.make m 0 in
  if not (Linalg.lu_factor a piv m) then raise (Err Singular);
  (* Coefficients. *)
  let rhs = Array.make m 0. in
  for i = 0 to n - 1 do
    let row = i * m in
    let y = weights.(i) *. ys.(i) in
    for j = 0 to m - 1 do
      rhs.(j) <- rhs.(j) +. (phi.(row + j) *. y)
    done
  done;
  Linalg.lu_solve a piv m rhs;
  let beta = rhs in
  Array.iter
    (fun b -> if not (Float.is_finite b) then raise (Err Singular))
    beta;
  (* Leave-one-out residuals from the hat diagonal:
     loo_i = r_i / (1 - h_ii), h_ii = phi_i' A^-1 phi_i. *)
  let loo = Array.make n 0. in
  let u = Array.make m 0. in
  for i = 0 to n - 1 do
    let row = i * m in
    Array.blit phi row u 0 m;
    Linalg.lu_solve a piv m u;
    let h = dot m phi row u in
    let r = (weights.(i) *. ys.(i)) -. dot m phi row beta in
    loo.(i) <- r /. Float.max (1. -. h) 1e-6
  done;
  let sigma =
    let s = ref 0. in
    Array.iter (fun r -> s := !s +. (r *. r)) loo;
    sqrt (!s /. fn)
  in
  { dims; mean; scale; exps; beta; a_lu = a; a_piv = piv; m; sigma; loo }

let fit ?(lambda = 1e-4) ~degrees ~rows ~targets () =
  try Ok (fit_exn ~lambda ~degrees ~rows ~targets) with Err e -> Error e

let basis_at t x =
  if Array.length x <> t.dims then
    invalid_arg "Ridge.predict: query dimension mismatch";
  let z = Array.make t.dims 0. in
  normalize t.mean t.scale x z;
  let out = Array.make t.m 0. in
  eval_basis t.exps z out;
  out

let predict t x = dot t.m (basis_at t x) 0 t.beta

let confidence t x =
  let p = basis_at t x in
  let y = dot t.m p 0 t.beta in
  if not (y > 0.) then Float.infinity
  else begin
    (* The normal matrix holds weighted rows (phi_i / y_i); the query is
       compared in the same units, weighted by 1 / prediction.  Unweighted,
       the leverage of tiny absolute targets would collapse to 0 and the
       interval would never widen. *)
    let w = 1. /. y in
    for j = 0 to t.m - 1 do
      p.(j) <- p.(j) *. w
    done;
    let u = Array.copy p in
    Linalg.lu_solve t.a_lu t.a_piv t.m u;
    t.sigma *. sqrt (1. +. Float.max 0. (dot t.m p 0 u))
  end

let loo_residuals t = Array.copy t.loo
