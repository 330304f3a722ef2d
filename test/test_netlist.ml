module N = Aging_netlist.Netlist
module Builder = N.Builder
module Designs = Aging_designs.Designs

let test_counter_counts () =
  let counter = Designs.counter ~bits:4 in
  let compiled = N.compile counter in
  let state = ref (N.initial_state counter) in
  let read outs =
    List.fold_left
      (fun acc i ->
        if List.assoc (Printf.sprintf "count[%d]" i) outs then acc lor (1 lsl i)
        else acc)
      0 [ 0; 1; 2; 3 ]
  in
  let step en =
    let outs, next = N.compiled_cycle compiled !state ~inputs:[ ("en", en) ] in
    state := next;
    read outs
  in
  Alcotest.(check int) "starts at 0" 0 (step true);
  Alcotest.(check int) "one" 1 (step true);
  Alcotest.(check int) "two" 2 (step true);
  Alcotest.(check int) "hold when disabled" 3 (step false);
  Alcotest.(check int) "still three" 3 (step true);
  for _ = 1 to 12 do
    ignore (step true)
  done;
  Alcotest.(check int) "wraps modulo 16" 0 (step true)

let test_builder_errors () =
  let b = Builder.create "t" in
  let a = Builder.input b "a" in
  (try
     ignore (Builder.cell b "NOCELL_X1" ~inputs:[ ("A", a) ]);
     Alcotest.fail "unknown cell accepted"
   with Failure _ -> ());
  try
    ignore (Builder.cell b "NAND2_X1" ~inputs:[ ("A1", a) ]);
    Alcotest.fail "missing pin accepted"
  with Failure _ -> ()

let test_multiple_drivers_rejected () =
  let b = Builder.create "t" in
  let a = Builder.input b "a" in
  (match Builder.cell b "INV_X1" ~inputs:[ ("A", a) ] with
  | [ y ] ->
    Builder.cell_into b "INV_X1" ~inputs:[ ("A", a) ] ~outputs:[ ("Y", y) ];
    Builder.output b "y" y
  | _ -> Alcotest.fail "arity");
  try
    ignore (Builder.finish b);
    Alcotest.fail "double driver accepted"
  with Failure _ -> ()

let test_duplicate_input_port_rejected () =
  let b = Builder.create "t" in
  let a = Builder.input b "a" and a' = Builder.input b "a" in
  (match Builder.cell b "NAND2_X1" ~inputs:[ ("A1", a); ("A2", a') ] with
  | [ y ] -> Builder.output b "y" y
  | _ -> Alcotest.fail "arity");
  Alcotest.check_raises "duplicate port"
    (Failure "Builder.finish: duplicate input port a")
    (fun () -> ignore (Builder.finish b))

let test_flipflop_needs_clock () =
  let b = Builder.create "t" in
  let a = Builder.input b "a" in
  try
    ignore (Builder.cell b "DFF_X1" ~inputs:[ ("D", a) ]);
    Alcotest.fail "flip-flop without clock accepted"
  with Failure _ -> ()

let test_combinational_cycle_detected () =
  let b = Builder.create "loop" in
  let x = Builder.fresh_net b in
  (match Builder.cell b "INV_X1" ~inputs:[ ("A", x) ] with
  | [ y ] -> Builder.cell_into b "INV_X1" ~inputs:[ ("A", y) ] ~outputs:[ ("Y", x) ]
  | _ -> Alcotest.fail "arity");
  Builder.output b "y" x;
  let nl = Builder.finish b in
  try
    ignore (N.combinational_order nl);
    Alcotest.fail "cycle not detected"
  with Failure _ -> ()

let test_base_cell_name () =
  Alcotest.(check string) "strips corner" "NAND2_X1" (N.base_cell_name "NAND2_X1@0.4_0.6");
  Alcotest.(check string) "plain" "INV_X2" (N.base_cell_name "INV_X2")

let test_structure_queries () =
  let dsp = Designs.dsp () in
  Alcotest.(check bool) "has flip-flops" true (N.flipflops dsp <> []);
  Alcotest.(check bool) "area positive" true (N.area dsp > 0.);
  let counts = N.count_cells dsp in
  Alcotest.(check bool) "counts non-empty" true (counts <> []);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  Alcotest.(check int) "counts cover instances" (Array.length dsp.N.instances) total

let test_driver_and_fanout () =
  let counter = Designs.counter ~bits:2 in
  let _, q0 = List.hd counter.N.output_ports in
  (match N.driver_of counter q0 with
  | Some (inst, _) ->
    Alcotest.(check bool) "driven by flip-flop" true (N.is_flipflop inst)
  | None -> Alcotest.fail "output not driven");
  Alcotest.(check bool) "fanout exists" true (N.fanout_of counter q0 <> [])

let test_rename_cells () =
  let counter = Designs.counter ~bits:2 in
  let renamed = N.rename_cells (fun i -> i.N.cell_name ^ "@1.0_1.0") counter in
  Array.iter
    (fun (inst : N.instance) ->
      Alcotest.(check bool) "suffix applied" true (String.contains inst.N.cell_name '@'))
    renamed.N.instances;
  (* Still resolvable through the base-name fallback. *)
  Alcotest.(check bool) "catalog resolution" true
    (Array.for_all
       (fun inst -> (N.catalog_cell inst).Aging_cells.Cell.name <> "")
       renamed.N.instances)

let prop_compiled_matches_uncompiled =
  Fixtures.qtest ~count:30 "compiled evaluator = direct evaluator"
    QCheck2.Gen.(array_size (QCheck2.Gen.return 8) bool)
    (fun bits ->
      let dsp = Designs.dsp () in
      let inputs =
        List.concat
          [
            List.init 8 (fun i -> (Printf.sprintf "a[%d]" i, bits.(i)));
            List.init 8 (fun i -> (Printf.sprintf "x[%d]" i, bits.(7 - i)));
            [ ("clr", false) ];
          ]
      in
      let state = N.initial_state dsp in
      let a = N.eval_cycle dsp state ~inputs in
      let b = N.compiled_cycle (N.compile dsp) state ~inputs in
      a = b)

let test_eval_missing_input () =
  let counter = Designs.counter ~bits:2 in
  try
    ignore (N.eval_cycle counter (N.initial_state counter) ~inputs:[]);
    Alcotest.fail "missing input accepted"
  with Failure _ -> ()

let test_eval_combinational_guard () =
  let counter = Designs.counter ~bits:2 in
  Alcotest.check_raises "sequential rejected"
    (Invalid_argument "Netlist.eval_combinational: netlist has flip-flops")
    (fun () -> ignore (N.eval_combinational counter ~inputs:[ ("en", true) ]))

let suite =
  [
    ("eval: counter behaviour", `Quick, test_counter_counts);
    ("builder: bad cells rejected", `Quick, test_builder_errors);
    ("builder: multiple drivers rejected", `Quick, test_multiple_drivers_rejected);
    ("builder: duplicate input port rejected", `Quick,
      test_duplicate_input_port_rejected);
    ("builder: flip-flop needs clock", `Quick, test_flipflop_needs_clock);
    ("order: combinational cycle detected", `Quick, test_combinational_cycle_detected);
    ("names: base cell name", `Quick, test_base_cell_name);
    ("queries: structure", `Quick, test_structure_queries);
    ("queries: driver and fanout", `Quick, test_driver_and_fanout);
    ("transform: rename cells", `Quick, test_rename_cells);
    ("eval: missing input", `Quick, test_eval_missing_input);
    ("eval: combinational guard", `Quick, test_eval_combinational_guard);
  ]

let props = [ prop_compiled_matches_uncompiled ]
