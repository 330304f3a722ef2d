module N = Aging_netlist.Netlist
module Export = Aging_netlist.Export
module Sdf = Aging_sta.Sdf
module Timing = Aging_sta.Timing
module Liberty_format = Aging_liberty.Liberty_format
module Designs = Aging_designs.Designs

let contains = Fixtures.contains

let test_verilog_structure () =
  let nl = Designs.counter ~bits:3 in
  let v = Export.to_verilog nl in
  Alcotest.(check bool) "module header" true (contains ~needle:"module counter" v);
  Alcotest.(check bool) "clock port" true (contains ~needle:"input clk;" v);
  Alcotest.(check bool) "output port" true (contains ~needle:"output count_0;" v);
  Alcotest.(check bool) "named connections" true (contains ~needle:".D(" v);
  Alcotest.(check bool) "endmodule" true (contains ~needle:"endmodule" v);
  (* One instantiation line per instance. *)
  let lines = String.split_on_char '\n' v in
  let inst_lines =
    List.filter (fun l -> contains ~needle:"_X" l && contains ~needle:"(." l) lines
  in
  Alcotest.(check int) "instance count" (Array.length nl.N.instances)
    (List.length inst_lines)

let test_verilog_sanitization () =
  Alcotest.(check string) "indexed cell" "NAND2_X1_c0p4_0p6"
    (Export.sanitize_identifier "NAND2_X1@0.4_0.6");
  Alcotest.(check string) "bus bit" "count_3" (Export.sanitize_identifier "count[3]")

let test_sdf_structure () =
  let nl = Designs.counter ~bits:3 in
  let analysis =
    Timing.analyze ~library:(Lazy.force Fixtures.fresh_library) nl
  in
  let sdf = Sdf.to_sdf analysis in
  Alcotest.(check bool) "header" true (contains ~needle:"(DELAYFILE" sdf);
  Alcotest.(check bool) "design name" true (contains ~needle:"\"counter\"" sdf);
  Alcotest.(check bool) "iopath entries" true (contains ~needle:"(IOPATH" sdf);
  Alcotest.(check bool) "flip-flop clk->q arc" true (contains ~needle:"(IOPATH CK Q" sdf);
  (* Delays are positive ns values. *)
  Alcotest.(check bool) "no negative ns triples" true
    (not (contains ~needle:"(-" sdf))

let test_liberty_emission () =
  let lib = Lazy.force Fixtures.fresh_library in
  let text = Liberty_format.to_liberty lib in
  Alcotest.(check bool) "library group" true (contains ~needle:"library (" text);
  Alcotest.(check bool) "template" true
    (contains ~needle:"lu_table_template (delay_template)" text);
  Alcotest.(check bool) "cell group" true (contains ~needle:"cell (NAND2_X1)" text);
  Alcotest.(check bool) "timing sense" true
    (contains ~needle:"timing_sense : negative_unate" text);
  Alcotest.(check bool) "ff group for DFF" true
    (contains ~needle:"ff (IQ, IQN)" text);
  Alcotest.(check bool) "setup constraint" true
    (contains ~needle:"timing_type : setup_rising" text);
  Alcotest.(check bool) "when condition on side inputs" true
    (contains ~needle:"when :" text)

let test_liberty_sanitize () =
  Alcotest.(check string) "corner name" "AND2_X1_c0p4_0p6"
    (Liberty_format.sanitize_name "AND2_X1@0.4_0.6")

let suite =
  [
    ("verilog: structure", `Quick, test_verilog_structure);
    ("verilog: identifier sanitization", `Quick, test_verilog_sanitization);
    ("sdf: structure", `Quick, test_sdf_structure);
    ("liberty: emission", `Quick, test_liberty_emission);
    ("liberty: name sanitization", `Quick, test_liberty_sanitize);
  ]

let props = []
