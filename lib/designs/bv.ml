module Netlist = Aging_netlist.Netlist
module Builder = Netlist.Builder

type ctx = {
  b : Builder.b;
  mutable c0 : Netlist.net option;
  mutable c1 : Netlist.net option;
}

type t = Netlist.net array

let ctx b = { b; c0 = None; c1 = None }
let builder c = c.b

let one_cell c cell_name ~inputs =
  match Builder.cell c.b cell_name ~inputs with
  | [ net ] -> net
  | [] | _ :: _ :: _ -> failwith ("Bv: expected single output from " ^ cell_name)

let zero_net c =
  match c.c0 with
  | Some n -> n
  | None ->
    let n = one_cell c "TIELO_X1" ~inputs:[] in
    c.c0 <- Some n;
    n

let one_net c =
  match c.c1 with
  | Some n -> n
  | None ->
    let n = one_cell c "TIEHI_X1" ~inputs:[] in
    c.c1 <- Some n;
    n

let input c name w =
  Array.init w (fun i -> Builder.input c.b (Printf.sprintf "%s[%d]" name i))

let output c name v =
  Array.iteri
    (fun i net -> Builder.output c.b (Printf.sprintf "%s[%d]" name i) net)
    v

let reg c v =
  Array.map
    (fun d ->
      match Builder.cell c.b "DFF_X1" ~inputs:[ ("D", d) ] with
      | [ q ] -> q
      | [] | _ :: _ :: _ -> failwith "Bv.reg: flip-flop arity")
    v

let feedback c w = Array.init w (fun _ -> Builder.fresh_net c.b)

let reg_into c ~d ~q =
  if Array.length d <> Array.length q then
    invalid_arg "Bv.reg_into: width mismatch";
  Array.iteri
    (fun i dn ->
      Builder.cell_into c.b "DFF_X1" ~inputs:[ ("D", dn) ]
        ~outputs:[ ("Q", q.(i)) ])
    d

let inv_net c n = one_cell c "INV_X1" ~inputs:[ ("A", n) ]
let and2_net c a b = one_cell c "AND2_X1" ~inputs:[ ("A1", a); ("A2", b) ]

let const c value w =
  Array.init w (fun i ->
      if (value asr i) land 1 = 1 then one_net c else zero_net c)

let width v = Array.length v
let bit v i = v.(i)

let slice v ~lo ~hi = Array.sub v lo (hi - lo + 1)
let concat lo hi = Array.append lo hi

let check_same_width name a b =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": width mismatch")

let not_ c v = Array.map (fun n -> one_cell c "INV_X1" ~inputs:[ ("A", n) ]) v

let bitwise name cell c a b =
  check_same_width name a b;
  Array.map2
    (fun x y -> one_cell c cell ~inputs:[ ("A1", x); ("A2", y) ])
    a b

let and_ c a b = bitwise "Bv.and_" "AND2_X1" c a b
let or_ c a b = bitwise "Bv.or_" "OR2_X1" c a b
let xor_ c a b =
  check_same_width "Bv.xor_" a b;
  Array.map2 (fun x y -> one_cell c "XOR2_X1" ~inputs:[ ("A", x); ("B", y) ]) a b

let and_net c v net =
  Array.map (fun x -> one_cell c "AND2_X1" ~inputs:[ ("A1", x); ("A2", net) ]) v

let mux c ~sel a b =
  check_same_width "Bv.mux" a b;
  Array.map2
    (fun x y -> one_cell c "MUX2_X1" ~inputs:[ ("A", x); ("B", y); ("S", sel) ])
    a b

let rec mux_tree c ~sel choices =
  match Array.length sel with
  | 0 -> begin
    match choices with
    | v :: _ -> v
    | [] -> invalid_arg "Bv.mux_tree: no choices"
  end
  | _ ->
    let low_sel = Array.sub sel 0 (Array.length sel - 1) in
    let top = sel.(Array.length sel - 1) in
    let half = 1 lsl Array.length low_sel in
    let rec split i acc = function
      | rest when i = half -> (List.rev acc, rest)
      | x :: rest -> split (i + 1) (x :: acc) rest
      | [] -> invalid_arg "Bv.mux_tree: not enough choices"
    in
    let lo_choices, hi_choices = split 0 [] choices in
    let lo = mux_tree c ~sel:low_sel lo_choices in
    let hi = mux_tree c ~sel:low_sel hi_choices in
    mux c ~sel:top lo hi

let full_add c x y z =
  match Builder.cell c.b "FA_X1" ~inputs:[ ("A", x); ("B", y); ("CI", z) ] with
  | [ co; s ] -> (co, s)
  | _ -> failwith "Bv.full_add: FA arity"

let add ?cin c a b =
  check_same_width "Bv.add" a b;
  let cin = match cin with Some n -> n | None -> zero_net c in
  let w = Array.length a in
  let out = Array.make w cin in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let co, s = full_add c a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := co
  done;
  out

(* Sklansky parallel-prefix adder: generate/propagate per bit, log-depth
   prefix tree, sum by XOR with the incoming carries. *)
let add_fast ?cin c a b =
  check_same_width "Bv.add_fast" a b;
  let w = Array.length a in
  let cin = match cin with Some n -> n | None -> zero_net c in
  let p = Array.init w (fun i -> one_cell c "XOR2_X1" ~inputs:[ ("A", a.(i)); ("B", b.(i)) ]) in
  let g =
    Array.init w (fun i ->
        let gi = one_cell c "AND2_X1" ~inputs:[ ("A1", a.(i)); ("A2", b.(i)) ] in
        if i = 0 then begin
          (* Fold the carry-in into bit 0's generate. *)
          let via = one_cell c "AND2_X1" ~inputs:[ ("A1", p.(0)); ("A2", cin) ] in
          one_cell c "OR2_X1" ~inputs:[ ("A1", gi); ("A2", via) ]
        end
        else gi)
  in
  (* prefix.(i) = (G, P) over bits [0..i]. *)
  let gg = Array.copy g and pp = Array.copy p in
  let level = ref 1 in
  while !level < w do
    let step = !level in
    (* Sklansky: combine blocks of size [step]. *)
    for i = 0 to w - 1 do
      if i land step <> 0 then begin
        let j = (i lor (step - 1)) - step in
        (* (G,P)_{0..i} = (G_hi + P_hi G_lo, P_hi P_lo) with hi = current. *)
        let via = one_cell c "AND2_X1" ~inputs:[ ("A1", pp.(i)); ("A2", gg.(j)) ] in
        gg.(i) <- one_cell c "OR2_X1" ~inputs:[ ("A1", gg.(i)); ("A2", via) ];
        pp.(i) <- one_cell c "AND2_X1" ~inputs:[ ("A1", pp.(i)); ("A2", pp.(j)) ]
      end
    done;
    level := 2 * step
  done;
  Array.init w (fun i ->
      let carry_in = if i = 0 then cin else gg.(i - 1) in
      one_cell c "XOR2_X1" ~inputs:[ ("A", p.(i)); ("B", carry_in) ])

let msb v = v.(Array.length v - 1)

let sext c v w =
  ignore c;
  let current = Array.length v in
  if w <= current then Array.sub v 0 w
  else Array.init w (fun i -> if i < current then v.(i) else msb v)

let zext c v w =
  let current = Array.length v in
  if w <= current then Array.sub v 0 w
  else Array.init w (fun i -> if i < current then v.(i) else zero_net c)

let sub c a b =
  check_same_width "Bv.sub" a b;
  add ~cin:(one_net c) c a (not_ c b)

let sub_fast c a b =
  check_same_width "Bv.sub_fast" a b;
  add_fast ~cin:(one_net c) c a (not_ c b)

let neg c v = sub c (const c 0 (Array.length v)) v

let shl_const c v k =
  let w = Array.length v in
  Array.init w (fun i -> if i < k then zero_net c else v.(i - k))

let asr_const c v k =
  ignore c;
  let w = Array.length v in
  Array.init w (fun i -> if i + k < w then v.(i + k) else msb v)

let add_const c v k =
  add c v (const c k (Array.length v))

(* Canonical signed-digit style decomposition: sum of +/- shifted copies. *)
let mul_const c v k =
  let w = Array.length v in
  if k = 0 then const c 0 w
  else begin
    let terms = ref [] in
    let k_abs = abs k in
    for i = 0 to 62 do
      if (k_abs asr i) land 1 = 1 then terms := shl_const c v i :: !terms
    done;
    let total =
      match !terms with
      | [] -> const c 0 w
      | first :: rest -> List.fold_left (fun acc t -> add_fast c acc t) first rest
    in
    if k < 0 then neg c total else total
  end

let mul c a b =
  let wa = Array.length a and wb = Array.length b in
  let w = wa + wb in
  let acc = ref (const c 0 w) in
  for i = 0 to wb - 1 do
    let partial = zext c (shl_const c (zext c a w) i) w in
    let masked = and_net c partial b.(i) in
    acc := add c !acc masked
  done;
  !acc

let eq_const c v k =
  let bits =
    Array.mapi
      (fun i n ->
        if (k asr i) land 1 = 1 then n
        else one_cell c "INV_X1" ~inputs:[ ("A", n) ])
      v
  in
  let rec tree = function
    | [] -> one_net c
    | [ x ] -> x
    | x :: y :: rest ->
      tree (one_cell c "AND2_X1" ~inputs:[ ("A1", x); ("A2", y) ] :: rest)
  in
  tree (Array.to_list bits)

let reduce_or c v =
  let rec tree = function
    | [] -> zero_net c
    | [ x ] -> x
    | x :: y :: rest ->
      tree (one_cell c "OR2_X1" ~inputs:[ ("A1", x); ("A2", y) ] :: rest)
  in
  tree (Array.to_list v)
