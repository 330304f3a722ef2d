let monotone_increasing a =
  let rec ok i = i >= Array.length a - 1 || (a.(i) < a.(i + 1) && ok (i + 1)) in
  ok 0

let bracket axis x =
  let n = Array.length axis in
  if n < 2 then invalid_arg "Interp.bracket: axis needs >= 2 points";
  (* Binary search for the segment containing x, clamped to the grid. *)
  if x <= axis.(0) then 0
  else if x >= axis.(n - 1) then n - 2
  else begin
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if axis.(mid) <= x then go mid hi else go lo mid
    in
    let i = go 0 (n - 1) in
    if not (axis.(i) < axis.(i + 1)) then
      invalid_arg "Interp.bracket: axis not strictly increasing";
    i
  end

let linear xs ys x =
  if Array.length xs <> Array.length ys then
    invalid_arg "Interp.linear: length mismatch";
  let i = bracket xs x in
  let x0 = xs.(i) and x1 = xs.(i + 1) in
  let t = (x -. x0) /. (x1 -. x0) in
  ys.(i) +. (t *. (ys.(i + 1) -. ys.(i)))
