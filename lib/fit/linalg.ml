(* Dense LU with an explicit factor/solve split, mirroring the spice
   engine's kernel: flat row-major storage, partial pivoting, multipliers
   stored below the diagonal, swaps in [piv].  A pivot below [pivot_floor]
   means the system is singular; that is surfaced to the caller (the ridge
   fit turns it into a typed error) instead of clamped. *)

let pivot_floor = 1e-30

let lu_factor a piv n =
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let k0 = !k in
    let pivot = ref k0 in
    for i = k0 + 1 to n - 1 do
      if Float.abs a.((i * n) + k0) > Float.abs a.((!pivot * n) + k0) then
        pivot := i
    done;
    piv.(k0) <- !pivot;
    if !pivot <> k0 then begin
      let rk = k0 * n and rp = !pivot * n in
      for j = 0 to n - 1 do
        let tmp = a.(rk + j) in
        a.(rk + j) <- a.(rp + j);
        a.(rp + j) <- tmp
      done
    end;
    let akk = a.((k0 * n) + k0) in
    if Float.abs akk < pivot_floor then ok := false
    else begin
      for i = k0 + 1 to n - 1 do
        let f = a.((i * n) + k0) /. akk in
        a.((i * n) + k0) <- f;
        if f <> 0. then
          for j = k0 + 1 to n - 1 do
            a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((k0 * n) + j))
          done
      done;
      incr k
    end
  done;
  !ok

let lu_solve a piv n b =
  for k = 0 to n - 1 do
    let p = piv.(k) in
    if p <> k then begin
      let tmp = b.(k) in
      b.(k) <- b.(p);
      b.(p) <- tmp
    end
  done;
  for i = 1 to n - 1 do
    let row = i * n in
    for j = 0 to i - 1 do
      b.(i) <- b.(i) -. (a.(row + j) *. b.(j))
    done
  done;
  for i = n - 1 downto 0 do
    let row = i * n in
    for j = i + 1 to n - 1 do
      b.(i) <- b.(i) -. (a.(row + j) *. b.(j))
    done;
    b.(i) <- b.(i) /. a.(row + i)
  done
