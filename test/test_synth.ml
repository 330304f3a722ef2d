module N = Aging_netlist.Netlist
module Subject = Aging_synth.Subject
module Decompose = Aging_synth.Decompose
module Mapper = Aging_synth.Mapper
module Sizing = Aging_synth.Sizing
module Buffering = Aging_synth.Buffering
module Slew_repair = Aging_synth.Slew_repair
module Flow = Aging_synth.Flow
module Timing = Aging_sta.Timing
module Designs = Aging_designs.Designs

let fresh () = Lazy.force Fixtures.fresh_library
let aged () = Lazy.force Fixtures.aged_library

let test_subject_simplification () =
  let g = Subject.create () in
  let a = Subject.source g "a" in
  Alcotest.(check int) "same source shared" a (Subject.source g "a");
  let na = Subject.inv g a in
  Alcotest.(check int) "double negation collapses" a (Subject.inv g na);
  Alcotest.(check int) "nand with itself is inversion" na (Subject.nand g a a);
  let t = Subject.constant g true in
  Alcotest.(check int) "nand with true inverts" na (Subject.nand g a t);
  let f = Subject.constant g false in
  Alcotest.(check int) "nand with false is true" t (Subject.nand g a f);
  Alcotest.(check int) "structural hashing"
    (Subject.nand g a na) (Subject.nand g na a)

let test_subject_eval () =
  let g = Subject.create () in
  let a = Subject.source g "a" and b = Subject.source g "b" in
  let x = Subject.xor2 g a b in
  let env va vb name = if name = "a" then va else vb in
  Alcotest.(check bool) "xor 10" true (Subject.eval g (env true false) x);
  Alcotest.(check bool) "xor 11" false (Subject.eval g (env true true) x);
  let m = Subject.mux g ~sel:a ~a0:b ~a1:(Subject.inv g b) in
  Alcotest.(check bool) "mux sel=0 passes a0" true (Subject.eval g (env false true) m);
  Alcotest.(check bool) "mux sel=1 passes a1" false (Subject.eval g (env true true) m)

let test_decompose_families_match_logic () =
  (* Every catalog family's decomposition must agree with the cell logic on
     all input combinations. *)
  List.iter
    (fun (cell : Aging_cells.Cell.t) ->
      if cell.Aging_cells.Cell.kind = Aging_cells.Cell.Combinational then begin
        let n = List.length cell.Aging_cells.Cell.inputs in
        let g = Subject.create () in
        let sources =
          List.map (fun pin -> Subject.source g pin) cell.Aging_cells.Cell.inputs
        in
        let outs = Decompose.cell_outputs g ~base:cell.Aging_cells.Cell.base sources in
        for k = 0 to (1 lsl n) - 1 do
          let values = List.init n (fun i -> k land (1 lsl i) <> 0) in
          let env name =
            List.assoc name (List.combine cell.Aging_cells.Cell.inputs values)
          in
          let got = List.map (Subject.eval g env) outs in
          let want = cell.Aging_cells.Cell.logic values in
          if got <> want then
            Alcotest.failf "%s decomposition mismatch" cell.Aging_cells.Cell.name
        done
      end)
    (Aging_cells.Catalog.all ())

let test_map_counter_equivalent () =
  let design = Designs.counter ~bits:5 in
  let subject, bounds = Decompose.of_netlist design in
  let result =
    Mapper.map ~slew_aware:true ~library:(fresh ()) ~design_name:"c" ~clock_name:"clk" subject bounds
  in
  Alcotest.(check bool) "functionally equivalent" true
    (Fixtures.equivalent design result.Mapper.netlist);
  (* Every mapped cell resolves in the target library. *)
  Array.iter
    (fun (inst : N.instance) ->
      Alcotest.(check bool)
        (inst.N.cell_name ^ " in library")
        true
        (Aging_liberty.Library.find (fresh ()) (N.base_cell_name inst.N.cell_name)
        <> None))
    result.Mapper.netlist.N.instances

let test_map_dsp_equivalent () =
  let design = Designs.dsp () in
  let subject, bounds = Decompose.of_netlist design in
  let result =
    Mapper.map ~slew_aware:true ~library:(fresh ()) ~design_name:"dsp" ~clock_name:"clk" subject
      bounds
  in
  Alcotest.(check bool) "dsp equivalent after mapping" true
    (Fixtures.equivalent design result.Mapper.netlist)

let max_fanout_of nl =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun (inst : N.instance) ->
      List.iter
        (fun (_, net) ->
          if nl.N.clock <> Some net then
            Hashtbl.replace counts net
              (1 + Option.value (Hashtbl.find_opt counts net) ~default:0))
        inst.N.inputs)
    nl.N.instances;
  Hashtbl.fold (fun _ v acc -> max v acc) counts 0

let test_buffering () =
  let design = Designs.risc5 () in
  let buffered = Buffering.buffer_fanout ~max_fanout:6 design in
  Alcotest.(check bool) "fanout bounded" true (max_fanout_of buffered <= 6);
  Alcotest.(check bool) "equivalent" true (Fixtures.equivalent design buffered)

let test_sizing_improves () =
  let design = Designs.counter ~bits:8 in
  let lib = fresh () in
  let before = Timing.min_period (Timing.analyze ~library:lib design) in
  let sized = Sizing.resize ~passes:4 ~library:lib design in
  let after = Timing.min_period (Timing.analyze ~library:lib sized) in
  Alcotest.(check bool) "not worse" true (after <= before +. 1e-13);
  Alcotest.(check bool) "equivalent" true (Fixtures.equivalent design sized)

let test_variant_sweep () =
  let design = Designs.counter ~bits:8 in
  let lib = aged () in
  let before = Timing.min_period (Timing.analyze ~library:lib design) in
  let swept = Sizing.variant_sweep ~library:lib design in
  let after = Timing.min_period (Timing.analyze ~library:lib swept) in
  Alcotest.(check bool) "not worse" true (after <= before +. 1e-13);
  Alcotest.(check bool) "equivalent" true (Fixtures.equivalent design swept)

let test_slew_repair () =
  let design = Designs.risc5 () in
  let lib = fresh () in
  let before = Timing.min_period (Timing.analyze ~library:lib design) in
  let repaired = Slew_repair.repair ~slew_limit:1.5e-10 ~library:lib design in
  let after = Timing.min_period (Timing.analyze ~library:lib repaired) in
  Alcotest.(check bool) "not worse" true (after <= before +. 1e-13);
  Alcotest.(check bool) "equivalent" true (Fixtures.equivalent design repaired)

let test_slew_repair_unique_names () =
  (* A netlist that already holds an SRBUF1 (as a repaired netlist does):
     an XOR2 (no stronger variant in the library) driving twelve loads off
     the critical path must get a buffer with a fresh name. *)
  let b = N.Builder.create "srbuf" in
  let inv ?name a =
    match N.Builder.cell b ?name "INV_X1" ~inputs:[ ("A", a) ] with
    | [ y ] -> y
    | _ -> Alcotest.fail "arity"
  in
  let a = N.Builder.input b "a" and c = N.Builder.input b "c" in
  let x =
    match N.Builder.cell b "XOR2_X1" ~inputs:[ ("A", a); ("B", c) ] with
    | [ y ] -> y
    | _ -> Alcotest.fail "arity"
  in
  List.iter
    (fun i -> N.Builder.output b (Printf.sprintf "o%d" i) (inv x))
    (List.init 12 Fun.id);
  let rec chain prev i = if i = 0 then prev else chain (inv prev) (i - 1) in
  N.Builder.output b "z" (chain (inv ~name:"SRBUF1" c) 16);
  let design = N.Builder.finish b in
  let repaired = Slew_repair.repair ~slew_limit:1e-12 ~library:(fresh ()) design in
  let names = Array.to_list (Array.map (fun i -> i.N.inst_name) repaired.N.instances) in
  Alcotest.(check bool) "a buffer was inserted" true
    (Array.exists (fun i -> i.N.cell_name = "BUF_X4") repaired.N.instances);
  Alcotest.(check int) "instance names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "equivalent" true (Fixtures.equivalent design repaired)

let quick_options =
  { Flow.default_options with Flow.sizing_passes = 2; map_rounds = 1 }

let test_flow_compile_counter () =
  let design = Designs.counter ~bits:6 in
  let lib = fresh () in
  let compiled = Flow.compile ~options:quick_options ~library:lib design in
  Alcotest.(check bool) "equivalent" true (Fixtures.equivalent design compiled);
  Alcotest.(check bool) "timeable" true (Flow.min_period ~library:lib compiled > 0.)

let test_flow_ports_preserved () =
  let design = Designs.dsp () in
  let compiled = Flow.compile ~options:quick_options ~library:(fresh ()) design in
  let names ports = List.sort compare (List.map fst ports) in
  Alcotest.(check (list string)) "inputs" (names design.N.input_ports)
    (names compiled.N.input_ports);
  Alcotest.(check (list string)) "outputs" (names design.N.output_ports)
    (names compiled.N.output_ports)

let test_aged_mapping_not_slower_aged () =
  (* Compiling against the aged library should produce a design that is not
     worse under the aged library than the fresh-compiled one by more than
     noise. *)
  let design = Designs.counter ~bits:8 in
  let trad = Flow.compile ~options:quick_options ~library:(fresh ()) design in
  let aware = Flow.compile ~options:quick_options ~library:(aged ()) design in
  let aged_p nl = Flow.min_period ~library:(aged ()) nl in
  Alcotest.(check bool) "aware aged period within 10% of trad's" true
    (aged_p aware <= aged_p trad *. 1.1)

let test_mapper_needs_base_cells () =
  let tiny =
    Aging_liberty.Library.create ~lib_name:"tiny" ~axes:Aging_liberty.Axes.coarse
      [ Aging_liberty.Library.find_exn (fresh ()) "XOR2_X1" ]
  in
  let design = Designs.counter ~bits:2 in
  let subject, bounds = Decompose.of_netlist design in
  try
    ignore (Mapper.map ~slew_aware:true ~library:tiny ~design_name:"c" ~clock_name:"clk" subject bounds);
    Alcotest.fail "mapping without NAND2/INV succeeded"
  with Failure _ -> ()

let prop_flow_equivalence_counter =
  Fixtures.qtest ~count:5 "flow preserves function for various widths"
    QCheck2.Gen.(int_range 2 6)
    (fun bits ->
      let design = Designs.counter ~bits in
      let compiled =
        Flow.compile ~options:quick_options
          ~library:(Lazy.force Fixtures.fresh_library) design
      in
      Fixtures.equivalent ~cycles:40 design compiled)

let suite =
  [
    ("subject: local simplification", `Quick, test_subject_simplification);
    ("subject: evaluation", `Quick, test_subject_eval);
    ("decompose: all families match logic", `Quick, test_decompose_families_match_logic);
    ("mapper: counter equivalence", `Quick, test_map_counter_equivalent);
    ("mapper: dsp equivalence", `Quick, test_map_dsp_equivalent);
    ("buffering: bounds fanout", `Quick, test_buffering);
    ("sizing: never worse, equivalent", `Quick, test_sizing_improves);
    ("sizing: variant sweep", `Quick, test_variant_sweep);
    ("slew repair: never worse", `Quick, test_slew_repair);
    ("slew repair: fresh buffer names", `Quick, test_slew_repair_unique_names);
    ("flow: counter compile", `Quick, test_flow_compile_counter);
    ("flow: ports preserved", `Quick, test_flow_ports_preserved);
    ("flow: aged mapping competitive", `Quick, test_aged_mapping_not_slower_aged);
    ("mapper: requires NAND2/INV", `Quick, test_mapper_needs_base_cells);
  ]

let props = [ prop_flow_equivalence_counter ]
