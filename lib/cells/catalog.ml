module Circuit = Aging_spice.Circuit

(* Symbolic pull-down conduction expression over input pin names.  Both the
   transistor network and the boolean function of single-stage cells derive
   from it, so the two can never disagree. *)
type sym = V of string | And of sym list | Or of sym list

let rec conducts env = function
  | V pin -> env pin
  | And es -> List.for_all (conducts env) es
  | Or es -> List.exists (conducts env) es

let rec to_pull node_of = function
  | V pin -> Pull.T (node_of pin)
  | And es -> Pull.S (List.map (to_pull node_of) es)
  | Or es -> Pull.P (List.map (to_pull node_of) es)

let pins_env inputs values pin =
  match List.assoc_opt pin (List.combine inputs values) with
  | Some v -> v
  | None -> invalid_arg ("Catalog: unknown pin " ^ pin)

let high_beta = 1.6
(* Pull-up boost of the "H" (high-beta) variants: tolerant to NBTI. *)

let name_of ?(p_boost = 1.0) base drive =
  Printf.sprintf "%s_X%d%s" base drive (if p_boost > 1.0 then "H" else "")

(* Single complementary stage: Y = not (pdn conducts). *)
let inverting ?p_boost ~base ~drive ~inputs ~pdn () =
  let c = Circuit.create () in
  let in_nodes = List.map (fun p -> (p, Circuit.fresh_node ~name:p c)) inputs in
  let y = Circuit.fresh_node ~name:"Y" c in
  let node_of p = List.assoc p in_nodes in
  Pull.stage ?p_boost c ~drive ~pdn:(to_pull node_of pdn) ~out:y;
  let logic values = [ not (conducts (pins_env inputs values) pdn) ] in
  Cell.make ~name:(name_of ?p_boost base drive) ~base ~drive ~inputs
    ~outputs:[ "Y" ] ~logic ~kind:Cell.Combinational
    ~built:{ circuit = c; input_nodes = in_nodes; output_nodes = [ ("Y", y) ] }

(* Inverting stage followed by an output inverter: Y = pdn conducts. *)
let two_stage ?p_boost ~base ~drive ~inputs ~pdn () =
  let c = Circuit.create () in
  let in_nodes = List.map (fun p -> (p, Circuit.fresh_node ~name:p c)) inputs in
  let w = Circuit.fresh_node c in
  let y = Circuit.fresh_node ~name:"Y" c in
  let node_of p = List.assoc p in_nodes in
  Pull.stage ?p_boost c ~drive ~pdn:(to_pull node_of pdn) ~out:w;
  Pull.inverter ?p_boost c ~drive ~input:w ~out:y;
  let logic values = [ conducts (pins_env inputs values) pdn ] in
  Cell.make ~name:(name_of ?p_boost base drive) ~base ~drive ~inputs
    ~outputs:[ "Y" ] ~logic ~kind:Cell.Combinational
    ~built:{ circuit = c; input_nodes = in_nodes; output_nodes = [ ("Y", y) ] }

let buffer ~drive =
  let c = Circuit.create () in
  let a = Circuit.fresh_node ~name:"A" c in
  let w = Circuit.fresh_node c in
  let y = Circuit.fresh_node ~name:"Y" c in
  let first = max 1 (drive / 2) in
  Pull.inverter c ~drive:first ~input:a ~out:w;
  Pull.inverter c ~drive ~input:w ~out:y;
  Cell.make ~name:(name_of "BUF" drive) ~base:"BUF" ~drive ~inputs:[ "A" ]
    ~outputs:[ "Y" ]
    ~logic:(fun values -> values)
    ~kind:Cell.Combinational
    ~built:
      { circuit = c; input_nodes = [ ("A", a) ]; output_nodes = [ ("Y", y) ] }

(* XOR2 / XNOR2: two input inverters plus one complementary stage whose
   pull-down network mixes external and internal signals. *)
let xor_like ~base ~drive ~xnor =
  let c = Circuit.create () in
  let a = Circuit.fresh_node ~name:"A" c in
  let b = Circuit.fresh_node ~name:"B" c in
  let an = Circuit.fresh_node c in
  let bn = Circuit.fresh_node c in
  let y = Circuit.fresh_node ~name:"Y" c in
  Pull.inverter c ~drive ~input:a ~out:an;
  Pull.inverter c ~drive ~input:b ~out:bn;
  let pdn =
    if xnor then
      (* conducts when A xor B -> Y = XNOR *)
      Pull.P [ Pull.S [ Pull.T a; Pull.T bn ]; Pull.S [ Pull.T an; Pull.T b ] ]
    else
      (* conducts when A = B -> Y = XOR *)
      Pull.P [ Pull.S [ Pull.T a; Pull.T b ]; Pull.S [ Pull.T an; Pull.T bn ] ]
  in
  Pull.stage c ~drive ~pdn ~out:y;
  let logic = function
    | [ va; vb ] -> [ (if xnor then va = vb else va <> vb) ]
    | _ -> invalid_arg (base ^ ": arity")
  in
  Cell.make ~name:(name_of base drive) ~base ~drive ~inputs:[ "A"; "B" ]
    ~outputs:[ "Y" ] ~logic ~kind:Cell.Combinational
    ~built:
      {
        circuit = c;
        input_nodes = [ ("A", a); ("B", b) ];
        output_nodes = [ ("Y", y) ];
      }

(* MUX2: Y = S ? B : A, built as input inverter + AOI22-style stage +
   output inverter (three stages, as in static CMOS libraries). *)
let mux2 ~drive ~inverting_out =
  let base = if inverting_out then "MUXI2" else "MUX2" in
  let c = Circuit.create () in
  let a = Circuit.fresh_node ~name:"A" c in
  let b = Circuit.fresh_node ~name:"B" c in
  let s = Circuit.fresh_node ~name:"S" c in
  let sn = Circuit.fresh_node c in
  let y = Circuit.fresh_node ~name:"Y" c in
  Pull.inverter c ~drive ~input:s ~out:sn;
  let pdn =
    Pull.P [ Pull.S [ Pull.T a; Pull.T sn ]; Pull.S [ Pull.T b; Pull.T s ] ]
  in
  if inverting_out then Pull.stage c ~drive ~pdn ~out:y
  else begin
    let w = Circuit.fresh_node c in
    Pull.stage c ~drive ~pdn ~out:w;
    Pull.inverter c ~drive ~input:w ~out:y
  end;
  let logic = function
    | [ va; vb; vs ] ->
      let selected = if vs then vb else va in
      [ (if inverting_out then not selected else selected) ]
    | _ -> invalid_arg (base ^ ": arity")
  in
  Cell.make ~name:(name_of base drive) ~base ~drive ~inputs:[ "A"; "B"; "S" ]
    ~outputs:[ "Y" ] ~logic ~kind:Cell.Combinational
    ~built:
      {
        circuit = c;
        input_nodes = [ ("A", a); ("B", b); ("S", s) ];
        output_nodes = [ ("Y", y) ];
      }

(* Mirror full adder: CO and S through the classic shared-majority
   structure; both outputs are buffered by inverters. *)
let full_adder ~drive =
  let c = Circuit.create () in
  let a = Circuit.fresh_node ~name:"A" c in
  let b = Circuit.fresh_node ~name:"B" c in
  let ci = Circuit.fresh_node ~name:"CI" c in
  let nco = Circuit.fresh_node c in
  let nsum = Circuit.fresh_node c in
  let co = Circuit.fresh_node ~name:"CO" c in
  let sum = Circuit.fresh_node ~name:"S" c in
  Pull.stage c ~drive ~out:nco
    ~pdn:
      (Pull.P
         [
           Pull.S [ Pull.T a; Pull.T b ];
           Pull.S [ Pull.P [ Pull.T a; Pull.T b ]; Pull.T ci ];
         ]);
  Pull.stage c ~drive ~out:nsum
    ~pdn:
      (Pull.P
         [
           Pull.S [ Pull.T a; Pull.T b; Pull.T ci ];
           Pull.S [ Pull.P [ Pull.T a; Pull.T b; Pull.T ci ]; Pull.T nco ];
         ]);
  Pull.inverter c ~drive ~input:nco ~out:co;
  Pull.inverter c ~drive ~input:nsum ~out:sum;
  let logic = function
    | [ va; vb; vc ] ->
      let t = (if va then 1 else 0) + (if vb then 1 else 0) + (if vc then 1 else 0) in
      [ t >= 2; t land 1 = 1 ]
    | _ -> invalid_arg "FA: arity"
  in
  Cell.make ~name:(name_of "FA" drive) ~base:"FA" ~drive
    ~inputs:[ "A"; "B"; "CI" ] ~outputs:[ "CO"; "S" ] ~logic
    ~kind:Cell.Combinational
    ~built:
      {
        circuit = c;
        input_nodes = [ ("A", a); ("B", b); ("CI", ci) ];
        output_nodes = [ ("CO", co); ("S", sum) ];
      }

let half_adder ~drive =
  let c = Circuit.create () in
  let a = Circuit.fresh_node ~name:"A" c in
  let b = Circuit.fresh_node ~name:"B" c in
  let an = Circuit.fresh_node c in
  let bn = Circuit.fresh_node c in
  let nand_ab = Circuit.fresh_node c in
  let co = Circuit.fresh_node ~name:"CO" c in
  let sum = Circuit.fresh_node ~name:"S" c in
  Pull.inverter c ~drive ~input:a ~out:an;
  Pull.inverter c ~drive ~input:b ~out:bn;
  Pull.stage c ~drive ~pdn:(Pull.S [ Pull.T a; Pull.T b ]) ~out:nand_ab;
  Pull.inverter c ~drive ~input:nand_ab ~out:co;
  Pull.stage c ~drive ~out:sum
    ~pdn:(Pull.P [ Pull.S [ Pull.T a; Pull.T b ]; Pull.S [ Pull.T an; Pull.T bn ] ]);
  let logic = function
    | [ va; vb ] -> [ va && vb; va <> vb ]
    | _ -> invalid_arg "HA: arity"
  in
  Cell.make ~name:(name_of "HA" drive) ~base:"HA" ~drive ~inputs:[ "A"; "B" ]
    ~outputs:[ "CO"; "S" ] ~logic ~kind:Cell.Combinational
    ~built:
      {
        circuit = c;
        input_nodes = [ ("A", a); ("B", b) ];
        output_nodes = [ ("CO", co); ("S", sum) ];
      }

(* Master-slave transmission-gate D flip-flop with clocked feedback
   keepers (no ratioed contention). *)
let dff ~drive =
  let c = Circuit.create () in
  let d = Circuit.fresh_node ~name:"D" c in
  let ck = Circuit.fresh_node ~name:"CK" c in
  let ckn = Circuit.fresh_node c in
  let ckb = Circuit.fresh_node c in
  let q = Circuit.fresh_node ~name:"Q" c in
  Pull.inverter c ~drive:1 ~input:ck ~out:ckn;
  Pull.inverter c ~drive:1 ~input:ckn ~out:ckb;
  (* Master latch: transparent while CK is low. *)
  let m_in = Circuit.fresh_node c in
  let m_out = Circuit.fresh_node c in
  let m_fb = Circuit.fresh_node c in
  Pull.transmission_gate c ~drive:1 ~a:d ~b:m_in ~n_gate:ckn ~p_gate:ckb;
  Pull.inverter c ~drive:1 ~input:m_in ~out:m_out;
  Pull.inverter c ~drive:1 ~input:m_out ~out:m_fb;
  Pull.transmission_gate c ~drive:1 ~a:m_fb ~b:m_in ~n_gate:ckb ~p_gate:ckn;
  (* Slave latch: transparent while CK is high.  The storage node is named
     so characterization can seed the pre-edge state. *)
  let s_in = Circuit.fresh_node ~name:"SLAVE" c in
  let s_fb = Circuit.fresh_node c in
  Pull.transmission_gate c ~drive:1 ~a:m_out ~b:s_in ~n_gate:ckb ~p_gate:ckn;
  Pull.inverter c ~drive ~input:s_in ~out:q;
  Pull.inverter c ~drive:1 ~input:q ~out:s_fb;
  Pull.transmission_gate c ~drive:1 ~a:s_fb ~b:s_in ~n_gate:ckn ~p_gate:ckb;
  let logic = function
    | [ vd; _ck ] -> [ vd ]
    | _ -> invalid_arg "DFF: arity"
  in
  Cell.make ~name:(name_of "DFF" drive) ~base:"DFF" ~drive
    ~inputs:[ "D"; "CK" ] ~outputs:[ "Q" ] ~logic ~kind:Cell.Flipflop
    ~built:
      {
        circuit = c;
        input_nodes = [ ("D", d); ("CK", ck) ];
        output_nodes = [ ("Q", q) ];
      }

(* Tie cells: constant drivers (an always-on transistor to the rail). *)
let tie ~high =
  let base = if high then "TIEHI" else "TIELO" in
  let c = Circuit.create () in
  let y = Circuit.fresh_node ~name:"Y" c in
  if high then
    Circuit.add_mos c
      ~dev:(Aging_physics.Device.pmos ~w:(2. *. Aging_physics.Device.w_min))
      ~g:Circuit.gnd ~d:y ~s:Circuit.vdd
  else
    Circuit.add_mos c
      ~dev:(Aging_physics.Device.nmos ~w:Aging_physics.Device.w_min)
      ~g:Circuit.vdd ~d:y ~s:Circuit.gnd;
  Cell.make ~name:(name_of base 1) ~base ~drive:1 ~inputs:[] ~outputs:[ "Y" ]
    ~logic:(fun _ -> [ high ])
    ~kind:Cell.Combinational
    ~built:{ circuit = c; input_nodes = []; output_nodes = [ ("Y", y) ] }

let abc n = List.filteri (fun i _ -> i < n) [ "A1"; "A2"; "A3"; "A4" ]

let nand_family ?p_boost n drives =
  List.map
    (fun drive ->
      inverting ?p_boost ~base:(Printf.sprintf "NAND%d" n) ~drive
        ~inputs:(abc n)
        ~pdn:(And (List.map (fun p -> V p) (abc n)))
        ())
    drives

let nor_family ?p_boost n drives =
  List.map
    (fun drive ->
      inverting ?p_boost ~base:(Printf.sprintf "NOR%d" n) ~drive
        ~inputs:(abc n)
        ~pdn:(Or (List.map (fun p -> V p) (abc n)))
        ())
    drives

let and_family n drives =
  List.map
    (fun drive ->
      two_stage ~base:(Printf.sprintf "AND%d" n) ~drive ~inputs:(abc n)
        ~pdn:(And (List.map (fun p -> V p) (abc n)))
        ())
    drives

let or_family n drives =
  List.map
    (fun drive ->
      two_stage ~base:(Printf.sprintf "OR%d" n) ~drive ~inputs:(abc n)
        ~pdn:(Or (List.map (fun p -> V p) (abc n)))
        ())
    drives

let inv_family ?p_boost drives =
  List.map
    (fun drive -> inverting ?p_boost ~base:"INV" ~drive ~inputs:[ "A" ] ~pdn:(V "A") ())
    drives

let build_all () =
  List.concat
    [
      inv_family [ 1; 2; 4; 8 ];
      inv_family ~p_boost:high_beta [ 1; 2; 4 ];
      List.map (fun drive -> buffer ~drive) [ 1; 2; 4; 8 ];
      nand_family 2 [ 1; 2; 4 ];
      nand_family ~p_boost:high_beta 2 [ 1; 2; 4 ];
      nand_family 3 [ 1; 2 ];
      nand_family ~p_boost:high_beta 3 [ 1 ];
      nand_family 4 [ 1; 2 ];
      nor_family 2 [ 1; 2; 4 ];
      nor_family ~p_boost:high_beta 2 [ 1; 2; 4 ];
      nor_family 3 [ 1; 2 ];
      nor_family ~p_boost:high_beta 3 [ 1 ];
      nor_family 4 [ 1 ];
      and_family 2 [ 1; 2 ];
      and_family 3 [ 1; 2 ];
      and_family 4 [ 1 ];
      or_family 2 [ 1; 2 ];
      or_family 3 [ 1; 2 ];
      or_family 4 [ 1 ];
      List.concat_map
        (fun (p_boost, drives) ->
          List.map
            (fun drive ->
              inverting ?p_boost ~base:"AOI21" ~drive
                ~inputs:[ "A1"; "A2"; "B" ]
                ~pdn:(Or [ And [ V "A1"; V "A2" ]; V "B" ])
                ())
            drives)
        [ (None, [ 1; 2 ]); (Some high_beta, [ 1 ]) ];
      [
        inverting ~base:"AOI22" ~drive:1 ~inputs:[ "A1"; "A2"; "B1"; "B2" ]
          ~pdn:(Or [ And [ V "A1"; V "A2" ]; And [ V "B1"; V "B2" ] ])
          ();
      ];
      List.concat_map
        (fun (p_boost, drives) ->
          List.map
            (fun drive ->
              inverting ?p_boost ~base:"OAI21" ~drive
                ~inputs:[ "A1"; "A2"; "B" ]
                ~pdn:(And [ Or [ V "A1"; V "A2" ]; V "B" ])
                ())
            drives)
        [ (None, [ 1; 2 ]); (Some high_beta, [ 1 ]) ];
      [
        inverting ~base:"OAI22" ~drive:1 ~inputs:[ "A1"; "A2"; "B1"; "B2" ]
          ~pdn:(And [ Or [ V "A1"; V "A2" ]; Or [ V "B1"; V "B2" ] ])
          ();
        inverting ~base:"AOI211" ~drive:1 ~inputs:[ "A1"; "A2"; "B"; "C" ]
          ~pdn:(Or [ And [ V "A1"; V "A2" ]; V "B"; V "C" ])
          ();
        inverting ~base:"OAI211" ~drive:1 ~inputs:[ "A1"; "A2"; "B"; "C" ]
          ~pdn:(And [ Or [ V "A1"; V "A2" ]; V "B"; V "C" ])
          ();
      ];
      List.map (fun drive -> xor_like ~base:"XOR2" ~drive ~xnor:false) [ 1; 2 ];
      [ xor_like ~base:"XNOR2" ~drive:1 ~xnor:true ];
      List.map (fun drive -> mux2 ~drive ~inverting_out:false) [ 1; 2 ];
      [ mux2 ~drive:1 ~inverting_out:true ];
      [ full_adder ~drive:1; half_adder ~drive:1 ];
      [ tie ~high:false; tie ~high:true ];
      List.map (fun drive -> dff ~drive) [ 1; 2 ];
    ]

(* The cells, and an index by name built with them. *)
let table =
  lazy
    (let cells = build_all () in
     let index = Hashtbl.create 128 in
     List.iter (fun (c : Cell.t) -> Hashtbl.replace index c.Cell.name c) cells;
     (cells, index))

let all () = fst (Lazy.force table)

let find name = Hashtbl.find_opt (snd (Lazy.force table)) name

let find_exn name =
  match find name with Some c -> c | None -> raise Not_found

let variants base =
  List.filter (fun (c : Cell.t) -> c.Cell.base = base) (all ())
  |> List.sort (fun (a : Cell.t) b -> compare a.Cell.drive b.Cell.drive)

let families () =
  List.fold_left
    (fun acc (c : Cell.t) ->
      if List.mem c.Cell.base acc then acc else acc @ [ c.Cell.base ])
    [] (all ())

let combinational () =
  List.filter (fun (c : Cell.t) -> c.Cell.kind = Cell.Combinational) (all ())
