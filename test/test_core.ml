module Scenario = Aging_physics.Scenario
module Library = Aging_liberty.Library
module Axes = Aging_liberty.Axes
module N = Aging_netlist.Netlist
module Designs = Aging_designs.Designs
module Deg = Aging_core.Degradation_library
module Guardband = Aging_core.Guardband
module Aging_synthesis = Aging_core.Aging_synthesis
module System_eval = Aging_core.System_eval
module Path_demo = Aging_core.Path_demo
module Image = Aging_image.Image
module Dct = Aging_image.Dct

let deglib () = Lazy.force Fixtures.deglib

let metric name =
  Option.value ~default:0. (Aging_obs.Metrics.value_by_name name)

let test_deglib_memoization () =
  let t = deglib () in
  let a = Deg.fresh t in
  let hit0 = metric "cache.memo_hit" in
  let b = Deg.fresh t in
  Alcotest.(check bool) "same library object" true (a == b);
  Alcotest.(check bool) "repeat request is a memo hit" true
    (metric "cache.memo_hit" > hit0);
  let w = Deg.worst_case t in
  Alcotest.(check bool) "distinct corners distinct" true (not (a == w))

let test_deglib_corner_memo () =
  (* A corner sweep keeps every library it built resident: a repeat request
     for any earlier corner is a memo hit returning the same object.  The
     analytic backend keeps the sweep cheap. *)
  let cells = [ Aging_cells.Catalog.find_exn "INV_X1" ] in
  let t =
    Deg.create ~backend:Aging_liberty.Characterize.Analytic ~cells
      ~axes:Axes.coarse ()
  in
  let n = 16 in
  let corners =
    List.init n (fun i ->
        let x = float_of_int i /. float_of_int (n - 1) in
        Scenario.corner ~lambda_p:x ~lambda_n:(1. -. x))
  in
  let libs = List.map (Deg.corner t) corners in
  let hit0 = metric "cache.memo_hit" in
  List.iter2
    (fun c lib ->
      Alcotest.(check bool) "earlier corner is still resident" true
        (Deg.corner t c == lib))
    corners libs;
  Alcotest.(check bool) "every repeat is a memo hit" true
    (metric "cache.memo_hit" >= hit0 +. float_of_int n)

let test_deglib_disk_cache () =
  let dir = Filename.temp_file "alib" "" in
  Sys.remove dir;
  let cells = [ Aging_cells.Catalog.find_exn "INV_X1" ] in
  let t1 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  let lib1 = Deg.worst_case t1 in
  Alcotest.(check bool) "cache file written" true
    (Array.length (Sys.readdir dir) > 0);
  (* A second manager must reload rather than re-characterize; compare a
     table value exactly. *)
  let t2 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  let lib2 = Deg.worst_case t2 in
  let d lib =
    Library.delay_of
      (List.hd (Library.find_exn lib "INV_X1").Library.arcs)
      ~dir:Library.Rise ~slew:4e-11 ~load:2e-15
  in
  Alcotest.(check (float 0.)) "identical tables from cache" (d lib1) (d lib2)

let test_deglib_corrupt_cache_rebuilds () =
  let dir = Filename.temp_file "alib" "" in
  Sys.remove dir;
  let cells = [ Aging_cells.Catalog.find_exn "INV_X1" ] in
  let t1 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  let lib1 = Deg.worst_case t1 in
  (* Truncate every cache file mid-stream: a partial/corrupt .alib must be
     treated as a miss, not crash the loader. *)
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
      output_string oc "library broken\nslews 1e-11";
      close_out oc)
    (Sys.readdir dir);
  let t2 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  let lib2 = Deg.worst_case t2 in
  let d lib =
    Library.delay_of
      (List.hd (Library.find_exn lib "INV_X1").Library.arcs)
      ~dir:Library.Rise ~slew:4e-11 ~load:2e-15
  in
  Alcotest.(check (float 0.)) "rebuilt library matches original" (d lib1) (d lib2);
  Alcotest.(check int) "rebuild was a real characterization" 1
    (List.length (Deg.build_reports t2));
  (* The corrupt file must have been overwritten with a loadable one. *)
  let t3 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  ignore (Deg.worst_case t3);
  Alcotest.(check int) "third manager hits the rewritten cache" 0
    (List.length (Deg.build_reports t3))

let test_fingerprint_sensitivity () =
  (* Every configuration knob must reach the cache fingerprint — including
     the LAST axis point and the LAST cell, which the old [Hashtbl.hash]
     fingerprint never saw (its traversal stops after 10 meaningful
     nodes), silently serving stale cache files. *)
  let cells =
    List.map Aging_cells.Catalog.find_exn [ "INV_X1"; "NAND2_X1"; "NOR2_X1" ]
  in
  let fp ?(cells = cells) ?(axes = Axes.coarse) ?(years = 10.) ?backend () =
    Deg.fingerprint (Deg.create ~cells ~axes ~years ?backend ())
  in
  let perturb_last a = Array.mapi (fun i x ->
      if i = Array.length a - 1 then x *. (1. +. 1e-9) else x) a
  in
  let base = fp () in
  Alcotest.(check string) "same config, same fingerprint" base (fp ());
  let differs name other =
    Alcotest.(check bool) (name ^ " changes fingerprint") true (other <> base)
  in
  differs "last load axis point"
    (fp ~axes:{ Axes.coarse with Axes.loads = perturb_last Axes.coarse.Axes.loads } ());
  differs "last slew axis point"
    (fp ~axes:{ Axes.coarse with Axes.slews = perturb_last Axes.coarse.Axes.slews } ());
  differs "dropping the last cell"
    (fp ~cells:(List.filteri (fun i _ -> i < 2) cells) ());
  differs "lifetime" (fp ~years:7. ());
  differs "backend" (fp ~backend:Aging_liberty.Characterize.Analytic ())

let test_nested_cache_dir () =
  (* --cache-dir a/b/c used to crash in [Sys.mkdir] (not recursive); the
     nested directory must be created and round-trip like a flat one. *)
  let root = Filename.temp_file "alib" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "aged") "v2" in
  let cells = [ Aging_cells.Catalog.find_exn "INV_X1" ] in
  let t1 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  ignore (Deg.worst_case t1);
  Alcotest.(check bool) "nested cache file written" true
    (Sys.is_directory dir && Array.length (Sys.readdir dir) > 0);
  let t2 = Deg.create ~cells ~axes:Axes.coarse ~cache_dir:dir () in
  ignore (Deg.worst_case t2);
  Alcotest.(check int) "second manager served from nested cache" 0
    (List.length (Deg.build_reports t2))

let test_complete_parallel_matches_sequential () =
  let cells =
    List.map Aging_cells.Catalog.find_exn [ "INV_X1"; "NAND2_X1" ]
  in
  let corners = [ Scenario.fresh; Scenario.worst_case ] in
  let build jobs =
    Deg.complete (Deg.create ~cells ~axes:Axes.coarse ~jobs ()) corners
  in
  let seq = build 1 and par = build 2 in
  Alcotest.(check (list string)) "same entries in the same order"
    (Library.names seq) (Library.names par);
  List.iter2
    (fun (a : Library.entry) (b : Library.entry) ->
      Alcotest.(check bool)
        (a.Library.indexed_name ^ ": identical arcs") true
        (a.Library.arcs = b.Library.arcs))
    (Library.entries seq) (Library.entries par)

let test_vth_only_corner_faster () =
  let t = deglib () in
  let full = Deg.worst_case t in
  let vth = Deg.worst_case ~mode:Aging_physics.Degradation.Vth_only t in
  let d lib name =
    Library.delay_of
      (List.hd (Library.find_exn lib name).Library.arcs)
      ~dir:Library.Rise ~slew:4e-11 ~load:4e-15
  in
  Alcotest.(check bool) "vth-only underestimates NAND rise aging" true
    (d vth "NAND2_X1" < d full "NAND2_X1")

let test_complete_library_corners () =
  let t = deglib () in
  let corners =
    [ Scenario.fresh; Scenario.worst_case; Scenario.balanced ]
  in
  let lib = Deg.complete t corners in
  Alcotest.(check int) "cells x corners"
    (List.length Fixtures.subset_names * List.length corners)
    (List.length (Library.entries lib));
  Alcotest.(check bool) "indexed naming" true
    (Library.find lib "NAND2_X1@1.0_1.0" <> None
    && Library.find lib "NAND2_X1@0.0_0.0" <> None
    && Library.find lib "INV_X1@0.5_0.5" <> None)

let test_complete_shares_corner_builds () =
  (* The complete library is the per-corner libraries renamed: a corner
     built before is served from the memo, never characterized again
     under a second cache name. *)
  let cells =
    List.map Aging_cells.Catalog.find_exn [ "INV_X1"; "NAND2_X1"; "DFF_X1" ]
  in
  let t = Deg.create ~cells ~axes:Axes.coarse () in
  let worst = Deg.worst_case t in
  let builds0 = List.length (Deg.build_reports t) in
  let lib = Deg.complete t [ Scenario.fresh; Scenario.worst_case ] in
  Alcotest.(check int) "only the fresh corner is built" (builds0 + 1)
    (List.length (Deg.build_reports t));
  List.iter
    (fun (w : Library.entry) ->
      let e =
        Library.find_exn lib
          (Scenario.indexed_name w.Library.indexed_name Scenario.worst_case)
      in
      let name = e.Library.indexed_name in
      Alcotest.(check bool) (name ^ ": same arcs") true
        (e.Library.arcs = w.Library.arcs);
      Alcotest.(check bool) (name ^ ": same pin caps") true
        (e.Library.pin_caps = w.Library.pin_caps);
      Alcotest.(check (float 0.)) (name ^ ": same setup time")
        w.Library.setup_time e.Library.setup_time)
    (Library.entries worst)

let test_single_opc_scaling () =
  let t = deglib () in
  let pseudo = Deg.single_opc t Scenario.worst_case in
  let fresh = Deg.fresh t in
  let e_p = Library.find_exn pseudo "NAND2_X1" in
  let e_f = Library.find_exn fresh "NAND2_X1" in
  let ratio slew load =
    Library.delay_of (List.hd e_p.Library.arcs) ~dir:Library.Rise ~slew ~load
    /. Library.delay_of (List.hd e_f.Library.arcs) ~dir:Library.Rise ~slew ~load
  in
  (* Single-OPC model applies one uniform ratio everywhere. *)
  Fixtures.check_close ~tol:1e-6 "uniform ratio" (ratio 1e-11 1e-15) (ratio 4e-10 1.5e-14);
  Alcotest.(check bool) "ratio within clamp" true
    (ratio 1e-11 1e-15 >= 0.2 && ratio 1e-11 1e-15 <= 8.)

let test_guardband_static () =
  let t = deglib () in
  let design = Designs.counter ~bits:8 in
  let g = Guardband.static ~deglib:t ~corner:Scenario.worst_case design in
  Alcotest.(check bool) "positive guardband" true (g.Guardband.guardband > 0.);
  Alcotest.(check bool) "aged = fresh + guardband" true
    (Fixtures.close ~tol:1e-15
       (g.Guardband.aged_period -. g.Guardband.fresh_period)
       g.Guardband.guardband);
  let balanced =
    Guardband.static ~deglib:t ~corner:Scenario.balanced design
  in
  Alcotest.(check bool) "balanced ages less than worst case" true
    (balanced.Guardband.guardband < g.Guardband.guardband)

let test_guardband_vth_only_smaller () =
  let t = deglib () in
  let design = Designs.counter ~bits:8 in
  let full = Guardband.static ~deglib:t ~corner:Scenario.worst_case design in
  let vth =
    Guardband.static ~mode:Aging_physics.Degradation.Vth_only ~deglib:t
      ~corner:Scenario.worst_case design
  in
  Alcotest.(check bool) "Fig 5a direction" true
    (vth.Guardband.guardband < full.Guardband.guardband)

let test_guardband_initial_cp_only_smaller () =
  let t = deglib () in
  let design = Designs.dsp () in
  let full = Guardband.static ~deglib:t ~corner:Scenario.worst_case design in
  let cp =
    Guardband.initial_cp_only ~deglib:t ~corner:Scenario.worst_case design
  in
  Alcotest.(check bool) "Fig 5c direction (cannot exceed full)" true
    (cp.Guardband.guardband <= full.Guardband.guardband +. 1e-13)

let test_guardband_dynamic () =
  let t = deglib () in
  let design = Designs.counter ~bits:4 in
  let g, annotated =
    Guardband.dynamic ~cycles:64 ~deglib:t
      ~stimulus:(fun _ -> [ ("en", true) ])
      design
  in
  Alcotest.(check bool) "dynamic guardband positive" true (g.Guardband.guardband > 0.);
  let worst = Guardband.static ~deglib:t ~corner:Scenario.worst_case design in
  Alcotest.(check bool) "workload stress below worst case" true
    (g.Guardband.guardband <= worst.Guardband.guardband +. 1e-13);
  Alcotest.(check bool) "netlist annotated" true
    (Array.exists
       (fun (inst : N.instance) -> String.contains inst.N.cell_name '@')
       annotated.N.instances)

let test_aging_synthesis_invariants () =
  let t = deglib () in
  let design = Designs.counter ~bits:8 in
  let options =
    { Aging_synth.Flow.default_options with Aging_synth.Flow.sizing_passes = 2;
      map_rounds = 1 }
  in
  let c = Aging_synthesis.run ~options ~deglib:t design in
  Alcotest.(check bool) "both equivalents" true
    (Fixtures.equivalent design c.Aging_synthesis.traditional
    && Fixtures.equivalent design c.Aging_synthesis.aware);
  Alcotest.(check bool) "required guardband positive" true
    (Aging_synthesis.required_guardband c > 0.);
  Alcotest.(check bool) "containment never negative (by construction)" true
    (Aging_synthesis.contained_guardband c
    <= Aging_synthesis.required_guardband c +. 1e-13);
  Alcotest.(check bool) "frequency gain consistent" true
    (Aging_synthesis.frequency_gain c >= -1e-9)

let test_path_demo_switch () =
  let fresh = Scenario.scenario Scenario.fresh in
  let worst = Scenario.scenario Scenario.worst_case in
  let total scenario p = (Path_demo.measure ~scenario p).Path_demo.total in
  Alcotest.(check bool) "path1 critical fresh" true
    (total fresh Path_demo.path1 > total fresh Path_demo.path2);
  Alcotest.(check bool) "path2 critical aged (Fig. 3)" true
    (total worst Path_demo.path2 > total worst Path_demo.path1)

let test_run_vectors_matches_reference () =
  (* The full DCT circuit streamed through the gate-level simulator at a
     relaxed period must be bit-identical to the software reference. *)
  let t = deglib () in
  let lib = Deg.fresh t in
  let sim = Aging_sim.Event_sim.prepare ~library:lib (Designs.dct ()) in
  let period = 2. *. Aging_sim.Event_sim.min_period sim in
  let vectors = [ [| 12; -50; 100; 127; -128; 3; 77; -1 |]; Array.make 8 10 ] in
  let out = System_eval.run_vectors sim ~period vectors in
  List.iter2
    (fun got vec ->
      Alcotest.(check (array int)) "transform matches" (Dct.forward_1d vec) got)
    out vectors

let test_reference_image () =
  let img = Aging_image.Synthetic.gradient ~width:16 ~height:16 in
  let r = System_eval.reference_image img in
  Alcotest.(check bool) "high quality" true (Image.psnr ~reference:img r > 35.)

let suite =
  [
    ("deglib: memoization", `Quick, test_deglib_memoization);
    ("deglib: corner memo hits", `Quick, test_deglib_corner_memo);
    ("deglib: disk cache", `Quick, test_deglib_disk_cache);
    ("deglib: corrupt cache rebuilds", `Quick, test_deglib_corrupt_cache_rebuilds);
    ("deglib: fingerprint sensitivity", `Quick, test_fingerprint_sensitivity);
    ("deglib: nested cache dir", `Quick, test_nested_cache_dir);
    ("deglib: parallel complete matches sequential", `Quick,
     test_complete_parallel_matches_sequential);
    ("deglib: vth-only mode", `Quick, test_vth_only_corner_faster);
    ("deglib: complete library", `Quick, test_complete_library_corners);
    ("deglib: complete shares corner builds", `Quick,
     test_complete_shares_corner_builds);
    ("deglib: single-OPC scaling", `Quick, test_single_opc_scaling);
    ("guardband: static", `Quick, test_guardband_static);
    ("guardband: vth-only smaller (Fig 5a)", `Quick, test_guardband_vth_only_smaller);
    ("guardband: initial-CP smaller (Fig 5c)", `Quick, test_guardband_initial_cp_only_smaller);
    ("guardband: dynamic workload", `Quick, test_guardband_dynamic);
    ("synthesis: invariants", `Slow, test_aging_synthesis_invariants);
    ("path demo: criticality switch (Fig 3)", `Quick, test_path_demo_switch);
    ("system eval: DCT stream matches reference", `Slow, test_run_vectors_matches_reference);
    ("system eval: reference image", `Quick, test_reference_image);
  ]

let props = []
