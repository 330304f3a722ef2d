module Device = Aging_physics.Device
module Circuit = Aging_spice.Circuit
module Engine = Aging_spice.Engine
module Stimulus = Aging_spice.Stimulus
module Cell = Aging_cells.Cell
module Catalog = Aging_cells.Catalog

let test_catalog_size () =
  Alcotest.(check bool) "at least 60 cells" true (List.length (Catalog.all ()) >= 60);
  Alcotest.(check bool) "at least 25 families" true
    (List.length (Catalog.families ()) >= 25)

let test_find () =
  Alcotest.(check bool) "NAND2_X1 exists" true (Catalog.find "NAND2_X1" <> None);
  Alcotest.(check bool) "high-beta variant exists" true (Catalog.find "NAND2_X1H" <> None);
  Alcotest.(check bool) "unknown" true (Catalog.find "NAND9_X1" = None);
  Alcotest.check_raises "find_exn" Not_found (fun () ->
      ignore (Catalog.find_exn "NAND9_X1"))

let test_variants_sorted () =
  let drives =
    List.map (fun (c : Cell.t) -> c.Cell.drive) (Catalog.variants "INV")
  in
  Alcotest.(check bool) "weakest first" true (List.sort compare drives = drives);
  Alcotest.(check bool) "several variants" true (List.length drives >= 4)

(* Transistor netlist vs declared logic function, across all input
   combinations, via DC transient settling. *)
let steady_state_matches (cell : Cell.t) =
  let n = List.length cell.Cell.inputs in
  let combos = List.init (1 lsl n) (fun k -> List.init n (fun i -> k land (1 lsl i) <> 0)) in
  List.for_all
    (fun combo ->
      let expected = cell.Cell.logic combo in
      let drives =
        List.map2
          (fun pin v ->
            ( List.assoc pin cell.Cell.built.input_nodes,
              Stimulus.constant (if v then Device.vdd else 0.) ))
          cell.Cell.inputs combo
      in
      let r = Engine.transient cell.Cell.built.circuit ~drives ~t_stop:2e-10 in
      List.for_all2
        (fun (_, node) want ->
          let v = Engine.final_voltage r node in
          (v > Device.vdd /. 2.) = want)
        cell.Cell.built.output_nodes expected)
    combos

let test_truth_tables_sample () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " matches its logic") true
        (steady_state_matches (Catalog.find_exn name)))
    [ "INV_X1"; "NAND3_X1"; "NOR2_X1H"; "AOI21_X1"; "OAI22_X1"; "XOR2_X1";
      "XNOR2_X1"; "MUX2_X1"; "FA_X1"; "HA_X1"; "AOI211_X1"; "TIELO_X1";
      "TIEHI_X1" ]

let test_truth_tables_all () =
  List.iter
    (fun (cell : Cell.t) ->
      if cell.Cell.kind = Cell.Combinational then
        Alcotest.(check bool) (cell.Cell.name ^ " matches its logic") true
          (steady_state_matches cell))
    (Catalog.all ())

let test_arc_counts () =
  let count name = List.length (Cell.arcs (Catalog.find_exn name)) in
  Alcotest.(check int) "INV" 1 (count "INV_X1");
  Alcotest.(check int) "NAND2" 2 (count "NAND2_X1");
  Alcotest.(check int) "MUX2" 3 (count "MUX2_X1");
  Alcotest.(check int) "FA = 3 inputs x 2 outputs" 6 (count "FA_X1");
  Alcotest.(check int) "DFF launch arcs" 2 (count "DFF_X1");
  Alcotest.(check int) "TIELO has none" 0 (count "TIELO_X1")

let test_unateness () =
  let arc cell = List.hd (Cell.arcs (Catalog.find_exn cell)) in
  Alcotest.(check bool) "INV negative" false (arc "INV_X1").Cell.positive_unate;
  Alcotest.(check bool) "AND2 positive" true (arc "AND2_X1").Cell.positive_unate;
  Alcotest.(check bool) "NAND2 negative" false (arc "NAND2_X1").Cell.positive_unate

let test_sensitizing_side_values () =
  let arcs = Cell.arcs (Catalog.find_exn "AOI21_X1") in
  (* Y = !(A1 A2 + B): the A1 arc needs A2 = 1 and B = 0. *)
  let a1 = List.find (fun (a : Cell.arc) -> a.Cell.arc_input = "A1") arcs in
  Alcotest.(check bool) "A2 high" true (List.assoc "A2" a1.Cell.side);
  Alcotest.(check bool) "B low" false (List.assoc "B" a1.Cell.side)

let test_input_capacitance () =
  let cap name pin = Cell.input_capacitance (Catalog.find_exn name) pin in
  Alcotest.(check bool) "positive" true (cap "NAND2_X1" "A1" > 0.);
  Alcotest.(check bool) "drive scales pin cap" true
    (cap "NAND2_X4" "A1" > cap "NAND2_X1" "A1");
  Alcotest.(check bool) "flip-flop D pin has junction cap" true
    (cap "DFF_X1" "D" > 0.);
  Alcotest.check_raises "unknown pin" Not_found (fun () ->
      ignore (cap "NAND2_X1" "Z9"))

let test_area_model () =
  let area name = (Catalog.find_exn name).Cell.area in
  Alcotest.(check bool) "positive" true (area "INV_X1" > 0.);
  Alcotest.(check bool) "grows with drive" true (area "INV_X4" > area "INV_X1");
  Alcotest.(check bool) "high-beta slightly larger" true
    (area "NAND2_X1H" > area "NAND2_X1");
  Alcotest.(check bool) "complex > simple" true (area "FA_X1" > area "NAND2_X1")

let test_high_beta_widths () =
  (* The H variant widens only the pull-up network. *)
  let width pol name =
    List.fold_left
      (fun acc (m : Circuit.mos) ->
        if m.Circuit.dev.Device.polarity = pol then acc +. m.Circuit.dev.Device.w
        else acc)
      0.
      (Circuit.mosfets (Catalog.find_exn name).Cell.built.circuit)
  in
  Alcotest.(check bool) "pmos wider" true
    (width Device.Pmos "INV_X1H" > width Device.Pmos "INV_X1");
  Fixtures.check_close ~tol:1e-12 "nmos unchanged"
    (width Device.Nmos "INV_X1") (width Device.Nmos "INV_X1H")

let test_eval_arity () =
  Alcotest.check_raises "wrong arity" (Invalid_argument "NAND2_X1: wrong input count")
    (fun () -> ignore (Cell.eval (Catalog.find_exn "NAND2_X1") [ true ]))

(* The tabulated truth table against the logic function on every input
   vector of every catalog cell: multi-output (FA, HA), zero-input tie
   cells, high-beta variants and flip-flops included. *)
let test_truth_table_matches_logic () =
  List.iter
    (fun (cell : Cell.t) ->
      let n = List.length cell.Cell.inputs in
      Alcotest.(check int) (cell.Cell.name ^ " table size") (1 lsl n)
        (Array.length cell.Cell.table);
      for code = 0 to (1 lsl n) - 1 do
        let outs = cell.Cell.logic (List.init n (fun i -> code land (1 lsl i) <> 0)) in
        List.iteri
          (fun k want ->
            Alcotest.(check bool)
              (Printf.sprintf "%s input %d output %d" cell.Cell.name code k)
              want
              ((cell.Cell.table.(code) lsr k) land 1 = 1))
          outs;
        Alcotest.(check int)
          (Printf.sprintf "%s input %d: no stray output bits" cell.Cell.name code)
          0
          (cell.Cell.table.(code) lsr List.length outs)
      done)
    (Catalog.all ());
  (* The bit layout, spelled out: bit i of the index is input i, bit k of
     the entry is output k (HA outputs are CO then S). *)
  let table name = (Catalog.find_exn name).Cell.table in
  Alcotest.(check (array int)) "NAND2" [| 1; 1; 1; 0 |] (table "NAND2_X1");
  Alcotest.(check (array int)) "HA" [| 0; 2; 2; 1 |] (table "HA_X1");
  Alcotest.(check (array int)) "TIEHI" [| 1 |] (table "TIEHI_X1");
  Alcotest.(check (array int)) "TIELO" [| 0 |] (table "TIELO_X1")

let test_make_input_limit () =
  let n = Cell.max_inputs + 1 in
  let c = Circuit.create () in
  let pins = List.init n (Printf.sprintf "A%d") in
  let input_nodes = List.map (fun p -> (p, Circuit.fresh_node ~name:p c)) pins in
  let y = Circuit.fresh_node ~name:"Y" c in
  Alcotest.check_raises "too many inputs"
    (Invalid_argument
       (Printf.sprintf "WIDE_X1: %d inputs (at most %d)" n Cell.max_inputs))
    (fun () ->
      ignore
        (Cell.make ~name:"WIDE_X1" ~base:"WIDE" ~drive:1 ~inputs:pins
           ~outputs:[ "Y" ]
           ~logic:(fun vs -> [ List.for_all Fun.id vs ])
           ~kind:Cell.Combinational
           ~built:{ Cell.circuit = c; input_nodes; output_nodes = [ ("Y", y) ] }))

let suite =
  [
    ("catalog: size", `Quick, test_catalog_size);
    ("catalog: lookup", `Quick, test_find);
    ("catalog: drive variants sorted", `Quick, test_variants_sorted);
    ("cells: truth tables (sample)", `Quick, test_truth_tables_sample);
    ("cells: truth tables (all)", `Slow, test_truth_tables_all);
    ("cells: arc counts", `Quick, test_arc_counts);
    ("cells: unateness", `Quick, test_unateness);
    ("cells: sensitizing side values", `Quick, test_sensitizing_side_values);
    ("cells: input capacitance", `Quick, test_input_capacitance);
    ("cells: area model", `Quick, test_area_model);
    ("cells: high-beta widths", `Quick, test_high_beta_widths);
    ("cells: eval arity check", `Quick, test_eval_arity);
    ("cells: truth table matches logic", `Quick, test_truth_table_matches_logic);
    ("cells: input count limit", `Quick, test_make_input_limit);
  ]

let props = []
