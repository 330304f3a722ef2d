(* Aggregated alcotest runner; property-based tests (qcheck) are appended
   as their own suite per module. *)

let () =
  Alcotest.run "aging_eda"
    [
      ("util", Test_util.suite);
      ("util:properties", Test_util.props);
      ("physics", Test_physics.suite);
      ("physics:properties", Test_physics.props);
      ("spice", Test_spice.suite);
      ("spice:properties", Test_spice.props);
      ("cells", Test_cells.suite);
      ("liberty", Test_liberty.suite);
      ("liberty:properties", Test_liberty.props);
      ("netlist", Test_netlist.suite);
      ("netlist:properties", Test_netlist.props);
      ("sta", Test_sta.suite);
      ("sta:properties", Test_sta.props);
      ("synth", Test_synth.suite);
      ("synth:properties", Test_synth.props);
      ("sim", Test_sim.suite);
      ("sim:properties", Test_sim.props);
      ("image", Test_image.suite);
      ("image:properties", Test_image.props);
      ("designs", Test_designs.suite);
      ("designs:properties", Test_designs.props);
      ("bv", Test_bv.suite);
      ("bv:properties", Test_bv.props);
      ("export", Test_export.suite);
      ("core", Test_core.suite);
      ("obs", Test_obs.suite);
      ("check", Test_check.suite);
    ]
