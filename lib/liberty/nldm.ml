module Interp = Aging_util.Interp

type table = {
  slews : float array;
  loads : float array;
  values : float array array;
}

let make ~slews ~loads ~values =
  if Array.length slews < 2 || Array.length loads < 2 then
    invalid_arg "Nldm.make: axes need >= 2 points";
  if not (Interp.monotone_increasing slews) then
    invalid_arg "Nldm.make: slew axis not increasing";
  if not (Interp.monotone_increasing loads) then
    invalid_arg "Nldm.make: load axis not increasing";
  if Array.length values <> Array.length slews then
    invalid_arg "Nldm.make: row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length loads then
        invalid_arg "Nldm.make: column count mismatch")
    values;
  { slews; loads; values }

(* The one bilinear interpolation, written so that a call allocates
   nothing.  Libraries are compiled with [-opaque], so no call across
   modules is inlined and every float crossing a call is boxed: the query
   point and the results therefore travel in a caller-owned float array
   ([io.(0)] slew, [io.(1)] load) and only ints cross a call.  The
   arithmetic is the textbook formula in a fixed operation order, so a
   table value is bit-for-bit the same whichever entry point asks for
   it. *)

(* Segment of [axis] used at [io.(k)]: the first below the grid, the last
   above it, otherwise the binary-search interval holding the point (a NaN
   lands in the first).  [make] guarantees >= 2 strictly increasing
   points. *)
let segment axis (io : float array) k =
  let x = io.(k) in
  let n = Array.length axis in
  if x <= axis.(0) then 0
  else if x >= axis.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if axis.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

(* Writes the value of [t] at ([io.(0)], [io.(1)]) on segment ([i], [j])
   to [io.(dst)]. *)
let interpolate t i j (io : float array) dst =
  let r = io.(0) and c = io.(1) in
  let r0 = t.slews.(i) and r1 = t.slews.(i + 1) in
  let c0 = t.loads.(j) and c1 = t.loads.(j + 1) in
  let tr = (r -. r0) /. (r1 -. r0) in
  let tc = (c -. c0) /. (c1 -. c0) in
  let row0 = t.values.(i) and row1 = t.values.(i + 1) in
  let z00 = row0.(j) and z01 = row0.(j + 1) in
  let z10 = row1.(j) and z11 = row1.(j + 1) in
  let lo = z00 +. (tc *. (z01 -. z00)) in
  let hi = z10 +. (tc *. (z11 -. z10)) in
  io.(dst) <- lo +. (tr *. (hi -. lo))

let slew_low = 1
let slew_high = 2
let load_low = 4
let load_high = 8

(* Sides of [t]'s axes the point lies strictly outside of. *)
let outside t (io : float array) =
  let s = io.(0) and l = io.(1) in
  let m = if s < t.slews.(0) then slew_low else 0 in
  let m = if s > t.slews.(Array.length t.slews - 1) then m lor slew_high else m in
  let m = if l < t.loads.(0) then m lor load_low else m in
  if l > t.loads.(Array.length t.loads - 1) then m lor load_high else m

let lookup_pair delay slew (io : float array) =
  let i = segment delay.slews io 0 and j = segment delay.loads io 1 in
  interpolate delay i j io 2;
  let m = outside delay io in
  if slew.slews == delay.slews && slew.loads == delay.loads then begin
    interpolate slew i j io 3;
    m lor (m lsl 4)
  end
  else begin
    interpolate slew (segment slew.slews io 0) (segment slew.loads io 1) io 3;
    m lor (outside slew io lsl 4)
  end

let lookup t ~slew ~load =
  let io = [| slew; load; 0. |] in
  interpolate t (segment t.slews io 0) (segment t.loads io 1) io 2;
  io.(2)

let tabulate ~slews ~loads f =
  let values =
    Array.map (fun s -> Array.map (fun l -> f ~slew:s ~load:l) loads) slews
  in
  make ~slews ~loads ~values

let map f t = { t with values = Array.map (Array.map f) t.values }

let same_axes a b = a.slews = b.slews && a.loads = b.loads

let map2 f a b =
  if not (same_axes a b) then invalid_arg "Nldm.map2: axis mismatch";
  {
    a with
    values = Array.map2 (fun ra rb -> Array.map2 f ra rb) a.values b.values;
  }

let fold f init t =
  Array.fold_left (fun acc row -> Array.fold_left f acc row) init t.values

let max_value t = fold Float.max neg_infinity t
let min_value t = fold Float.min infinity t
let dimensions t = (Array.length t.slews, Array.length t.loads)
