type t = { mutable state : int64 }

(* splitmix64 (Steele et al.): state += golden gamma; output = mix(state). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let float t =
  (* 53 high bits -> [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  int_of_float (float t *. float_of_int bound)

let bool t = Int64.logand (int64 t) 1L = 1L

let derive seed k =
  if k = 0 then seed
  else mix (Int64.add seed (Int64.mul (Int64.of_int k) golden_gamma))
