module Scenario = Aging_physics.Scenario
module Nldm = Aging_liberty.Nldm
module Axes = Aging_liberty.Axes
module Library = Aging_liberty.Library
module Characterize = Aging_liberty.Characterize
module Io = Aging_liberty.Io
module Catalog = Aging_cells.Catalog
module Degradation_library = Aging_core.Degradation_library
module Cell = Aging_cells.Cell

let sample_table =
  Nldm.make ~slews:[| 1e-11; 1e-10 |] ~loads:[| 1e-15; 1e-14 |]
    ~values:[| [| 1e-11; 2e-11 |]; [| 3e-11; 4e-11 |] |]

let test_nldm_make_validation () =
  let bad axis = Nldm.make ~slews:axis ~loads:[| 1.; 2. |] ~values:[| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.check_raises "non-monotone" (Invalid_argument "Nldm.make: slew axis not increasing")
    (fun () -> ignore (bad [| 2.; 1. |]));
  Alcotest.check_raises "short axis" (Invalid_argument "Nldm.make: axes need >= 2 points")
    (fun () -> ignore (bad [| 1. |]));
  Alcotest.check_raises "shape" (Invalid_argument "Nldm.make: row count mismatch")
    (fun () ->
      ignore
        (Nldm.make ~slews:[| 1.; 2.; 3. |] ~loads:[| 1.; 2. |]
           ~values:[| [| 1.; 2. |]; [| 3.; 4. |] |]))

let test_nldm_lookup () =
  Alcotest.(check (float 1e-15)) "grid point" 1e-11
    (Nldm.lookup sample_table ~slew:1e-11 ~load:1e-15);
  Alcotest.(check (float 1e-15)) "center" 2.5e-11
    (Nldm.lookup sample_table ~slew:5.5e-11 ~load:5.5e-15)

let test_nldm_map_fold () =
  let doubled = Nldm.map (fun v -> 2. *. v) sample_table in
  Alcotest.(check (float 1e-15)) "map" 8e-11 (Nldm.max_value doubled);
  Alcotest.(check (float 1e-15)) "min" 1e-11 (Nldm.min_value sample_table);
  let diff = Nldm.map2 (fun a b -> b -. a) sample_table doubled in
  Alcotest.(check (float 1e-15)) "map2" 4e-11 (Nldm.max_value diff);
  Alcotest.(check int) "fold count" 4 (Nldm.fold (fun n _ -> n + 1) 0 sample_table)

let test_axes () =
  Alcotest.(check int) "paper OPC count" 49 (Axes.count Axes.paper);
  Alcotest.(check int) "coarse OPC count" 9 (Axes.count Axes.coarse);
  Alcotest.(check (float 0.)) "paper min slew" 5e-12 Axes.paper.Axes.slews.(0);
  Alcotest.(check (float 0.)) "paper max load" 20e-15
    Axes.paper.Axes.loads.(Array.length Axes.paper.Axes.loads - 1)

let fresh_entry name = Library.find_exn (Lazy.force Fixtures.fresh_library) name
let aged_entry name = Library.find_exn (Lazy.force Fixtures.aged_library) name

let test_characterized_inverter () =
  let e = fresh_entry "INV_X1" in
  let arc = List.hd e.Library.arcs in
  Alcotest.(check bool) "negative unate" true (arc.Library.sense = Library.Negative);
  let d = Library.delay_of arc ~dir:Library.Rise ~slew:4e-11 ~load:2e-15 in
  Alcotest.(check bool) "plausible delay" true (d > 5e-12 && d < 1e-10);
  let s = Library.out_slew_of arc ~dir:Library.Rise ~slew:4e-11 ~load:2e-15 in
  Alcotest.(check bool) "plausible slew" true (s > 5e-12 && s < 2e-10)

let test_delay_monotone_in_load () =
  let e = fresh_entry "NAND2_X1" in
  let arc = List.hd e.Library.arcs in
  let d load = Library.delay_of arc ~dir:Library.Fall ~slew:4e-11 ~load in
  Alcotest.(check bool) "monotone" true (d 1e-15 < d 8e-15 && d 8e-15 < d 1.8e-14)

let test_aging_slows_rise () =
  let fa = List.hd (fresh_entry "NAND2_X1").Library.arcs in
  let aa = List.hd (aged_entry "NAND2_X1").Library.arcs in
  let f = Library.delay_of fa ~dir:Library.Rise ~slew:4e-11 ~load:4e-15 in
  let a = Library.delay_of aa ~dir:Library.Rise ~slew:4e-11 ~load:4e-15 in
  Alcotest.(check bool) "aged rise slower" true (a > f);
  Alcotest.(check bool) "increase below 60%" true (a /. f < 1.6)

let test_nor_fall_improves_at_large_slew () =
  let fa = List.hd (fresh_entry "NOR2_X1").Library.arcs in
  let aa = List.hd (aged_entry "NOR2_X1").Library.arcs in
  let slew = 9.47e-10 and load = 5e-16 in
  let f = Library.delay_of fa ~dir:Library.Fall ~slew ~load in
  let a = Library.delay_of aa ~dir:Library.Fall ~slew ~load in
  Alcotest.(check bool) "fall improved (paper Fig. 1b)" true (a < f)

let test_flipflop_entry () =
  let e = fresh_entry "DFF_X1" in
  Alcotest.(check int) "one merged launch arc" 1 (List.length e.Library.arcs);
  let arc = List.hd e.Library.arcs in
  Alcotest.(check string) "from CK" "CK" arc.Library.from_pin;
  Alcotest.(check string) "to Q" "Q" arc.Library.to_pin;
  Alcotest.(check bool) "setup positive" true (e.Library.setup_time > 0.);
  Alcotest.(check bool) "aged setup larger" true
    ((aged_entry "DFF_X1").Library.setup_time > e.Library.setup_time)

let test_out_direction () =
  let arc = List.hd (fresh_entry "INV_X1").Library.arcs in
  Alcotest.(check bool) "inverting" true
    (Library.out_direction arc ~in_dir:Library.Rise = Library.Fall)

let test_merge_complete () =
  let cells = [ Catalog.find_exn "INV_X1"; Catalog.find_exn "NAND2_X1" ] in
  let corners =
    [ Scenario.fresh; Scenario.worst_case; Scenario.corner ~lambda_p:0.5 ~lambda_n:0.5 ]
  in
  let deglib = Degradation_library.create ~cells ~axes:Axes.coarse () in
  let lib = Degradation_library.complete deglib corners in
  Alcotest.(check int) "cells x corners" 6 (List.length (Library.entries lib));
  Alcotest.(check bool) "indexed entry resolvable" true
    (Library.find lib "INV_X1@1.0_1.0" <> None)

let test_library_duplicate_rejected () =
  let e = fresh_entry "INV_X1" in
  Alcotest.check_raises "duplicate" (Invalid_argument "Library.create: duplicate INV_X1")
    (fun () -> ignore (Library.create ~lib_name:"dup" ~axes:Axes.coarse [ e; e ]))

let test_io_roundtrip () =
  let lib = Lazy.force Fixtures.fresh_library in
  let reloaded = Io.of_string (Io.to_string lib) in
  Alcotest.(check int) "entry count" (List.length (Library.entries lib))
    (List.length (Library.entries reloaded));
  List.iter
    (fun (e : Library.entry) ->
      let r = Library.find_exn reloaded e.Library.indexed_name in
      Alcotest.(check (float 1e-18)) "setup preserved" e.Library.setup_time
        r.Library.setup_time;
      List.iter2
        (fun (a : Library.arc) (b : Library.arc) ->
          Alcotest.(check string) "pins" a.Library.from_pin b.Library.from_pin;
          List.iter
            (fun (slew, load) ->
              Alcotest.(check (float 1e-16)) "delay preserved"
                (Library.delay_of a ~dir:Library.Rise ~slew ~load)
                (Library.delay_of b ~dir:Library.Rise ~slew ~load))
            [ (1e-11, 1e-15); (2e-10, 8e-15); (9e-10, 1.9e-14) ])
        e.Library.arcs r.Library.arcs)
    (Library.entries lib)

let test_io_parse_errors () =
  (try
     ignore (Io.of_string "library x\nbogus\n");
     Alcotest.fail "expected failure"
   with Failure msg ->
     Alcotest.(check bool) "line number in error" true
       (String.length msg > 0 && String.contains msg ':'));
  try
    ignore (Io.of_string "library x\nslews 1e-11 2e-11\nloads 1e-15 2e-15\ncell A UNKNOWN_CELL 0 0 0\n");
    Alcotest.fail "expected failure"
  with Failure msg ->
    Alcotest.(check bool) "unknown cell reported" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Retry and typed failure, on real physics                            *)
(* ------------------------------------------------------------------ *)

(* The aged inverter on two slews and two loads.  At 230 fF the first
   attempt of two points does not finish its transition in time and an
   escalated rung measures it; at 1 pF every rung runs out of time. *)
let inv_worst_axes load =
  { Axes.slews = [| 10e-12; 20e-12 |]; loads = [| 1e-15; load |] }

let inv_worst_build ?(jobs = 1) load =
  Characterize.library_report ~jobs
    ~cells:[ Catalog.find_exn "INV_X1" ]
    ~axes:(inv_worst_axes load) ~name:"retry"
    ~scenario:(Scenario.scenario Scenario.worst_case) ()

let check_complete_library lib =
  List.iter
    (fun (e : Library.entry) ->
      Alcotest.(check bool) ("arcs present for " ^ e.Library.indexed_name) true
        (e.Library.arcs <> [] || e.Library.cell.Cell.inputs = []);
      List.iter
        (fun (a : Library.arc) ->
          List.iter
            (fun t ->
              Alcotest.(check bool) "full finite grid" true
                (Nldm.fold (fun acc v -> acc && Float.is_finite v) true t))
            [ a.Library.delay_rise; a.Library.delay_fall; a.Library.slew_rise;
              a.Library.slew_fall ])
        e.Library.arcs)
    (Library.entries lib)

let test_clean_build_report () =
  let lib, report =
    Characterize.library_report
      ~cells:[ Catalog.find_exn "INV_X1" ]
      ~axes:Axes.coarse ~name:"clean"
      ~scenario:(Scenario.scenario Scenario.fresh) ()
  in
  check_complete_library lib;
  Alcotest.(check bool) "clean" true (Characterize.report_clean report);
  let t = Characterize.report_totals report in
  (* One arc, two directions, 3x3 grid. *)
  Alcotest.(check int) "point count" 18 t.Characterize.points;
  Alcotest.(check int) "all clean" 18 t.Characterize.clean

let test_retry_rescues_points () =
  let lib, report = inv_worst_build 230e-15 in
  check_complete_library lib;
  let t = Characterize.report_totals report in
  Alcotest.(check int) "points" 8 t.Characterize.points;
  Alcotest.(check int) "rescued by a rung" 2 t.Characterize.recovered;
  Alcotest.(check int) "measured first try" 6 t.Characterize.clean;
  Alcotest.(check int) "nothing degraded" 0 t.Characterize.degraded;
  Alcotest.(check bool) "not clean" false (Characterize.report_clean report);
  let text = Characterize.report_to_string report in
  Alcotest.(check bool) "report names the retried arc" true
    (Fixtures.contains ~needle:"INV_X1 A->Y" text)

let point_failure f =
  match f () with
  | _ -> Alcotest.fail "expected Characterize.Point_failed"
  | exception Characterize.Point_failed p -> p

let test_exhausted_point_raises () =
  (* Every rung fails at 1 pF: the build raises, naming the point, instead
     of filling the table with a value no simulation produced. *)
  let at jobs = point_failure (fun () -> inv_worst_build ~jobs 1e-12) in
  let p = at 1 in
  (* The first failing point in work-list order: the rise grid comes
     first, and its (10 ps, 1 pF) point is the first 1 pF point. *)
  Alcotest.(check string) "cell" "INV_X1" p.Characterize.cell;
  Alcotest.(check (pair string string)) "arc" ("A", "Y")
    (p.Characterize.from_pin, p.Characterize.to_pin);
  Alcotest.(check bool) "direction" true (p.Characterize.dir = Library.Rise);
  Alcotest.(check (float 0.)) "slew" 10e-12 p.Characterize.slew;
  Alcotest.(check (float 0.)) "load" 1e-12 p.Characterize.load;
  Alcotest.(check int) "one error per rung" 3
    (List.length p.Characterize.rung_errors);
  (* The registered printer names the point; the default one would not. *)
  let text = Printexc.to_string (Characterize.Point_failed p) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("message names " ^ sub) true
        (Fixtures.contains ~needle:sub text))
    [ "INV_X1 A->Y rise"; "slew=10.0ps"; "load=1000.00fF" ];
  Alcotest.(check bool) "same error at jobs=4" true (at 4 = p);
  (* The single-point entry point fails through the same channel. *)
  let cell = Catalog.find_exn "INV_X1" in
  let q =
    point_failure (fun () ->
        Characterize.arc_measure Characterize.default_backend
          ~scenario:(Scenario.scenario Scenario.worst_case) ~cell
          ~arc:(List.hd (Cell.arcs cell)) ~dir:p.Characterize.dir
          ~slew:p.Characterize.slew ~load:1e-12)
  in
  Alcotest.(check bool) "arc_measure names the same point" true
    ((q.Characterize.cell, q.Characterize.from_pin, q.Characterize.to_pin,
      q.Characterize.dir, q.Characterize.slew, q.Characterize.load)
    = (p.Characterize.cell, p.Characterize.from_pin, p.Characterize.to_pin,
       p.Characterize.dir, p.Characterize.slew, p.Characterize.load))

let test_parallel_determinism () =
  (* The tentpole guarantee: [library ~jobs:n] is identical to
     [~jobs:1] — entries, tables, and the build report are assembled in
     input order, never claim or completion order.  Mixed cell kinds
     (combinational, multi-stage, flip-flop) exercise every grid shape and
     give the longest-first claim order distinct costs to sort. *)
  let cells =
    List.map Catalog.find_exn [ "INV_X1"; "NAND2_X1"; "FA_X1"; "DFF_X1" ]
  in
  let build ?(cells = cells) jobs =
    Characterize.library_report ~cells ~jobs ~axes:Axes.coarse
      ~name:"determinism" ~scenario:(Scenario.scenario Scenario.worst_case) ()
  in
  let same_entries what ea eb =
    List.iter2
      (fun (a : Library.entry) (b : Library.entry) ->
        let name = what ^ " " ^ a.Library.indexed_name in
        Alcotest.(check string) "entry name" a.Library.indexed_name
          b.Library.indexed_name;
        Alcotest.(check (float 0.)) (name ^ ": setup") a.Library.setup_time
          b.Library.setup_time;
        Alcotest.(check bool) (name ^ ": pin caps") true
          (a.Library.pin_caps = b.Library.pin_caps);
        (* Arc records are plain data (tables are float arrays), so
           structural equality is exact table-for-table identity. *)
        Alcotest.(check bool) (name ^ ": identical arcs") true
          (a.Library.arcs = b.Library.arcs))
      ea eb
  in
  (* The wall-time field (grid_seconds) is a measurement, not a result —
     everything else in the accounting must be bit-identical. *)
  let project (s : Characterize.arc_stats) =
    ( (s.Characterize.stat_cell, s.Characterize.stat_from,
       s.Characterize.stat_to, s.Characterize.stat_dir),
      (s.Characterize.measured, s.Characterize.retried),
      s.Characterize.errors )
  in
  let stats (rep : Characterize.report) =
    List.map project rep.Characterize.stats
  in
  let lib1, rep1 = build 1 in
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs=%d" jobs in
      let lib, rep = build jobs in
      Alcotest.(check (list string)) (what ^ ": same entry order")
        (Library.names lib1) (Library.names lib);
      same_entries what (Library.entries lib1) (Library.entries lib);
      Alcotest.(check bool) (what ^ ": identical reports, same stats order")
        true
        (stats rep1 = stats rep))
    [ 2; 3; 4 ];
  (* Reversing the cells reverses the entries and leaves each entry and
     each cell's report stats unchanged: the cost order of the work list
     never leaks into the result. *)
  let lib_rev, rep_rev = build ~cells:(List.rev cells) 2 in
  Alcotest.(check (list string)) "reversed cells: reversed entry order"
    (List.rev (Library.names lib1)) (Library.names lib_rev);
  same_entries "reversed" (Library.entries lib1)
    (List.rev (Library.entries lib_rev));
  List.iter
    (fun (c : Cell.t) ->
      let of_cell rep =
        List.filter
          (fun ((cell, _, _, _), _, _) -> cell = c.Cell.name)
          (stats rep)
      in
      Alcotest.(check bool) (c.Cell.name ^ ": same report stats") true
        (of_cell rep1 = of_cell rep_rev))
    cells

let test_descriptive_lookup_errors () =
  let lib = Lazy.force Fixtures.fresh_library in
  Alcotest.check_raises "missing cell"
    (Library.Cell_not_found { library = "test-fresh"; cell = "NAND9_X1" })
    (fun () -> ignore (Library.find_exn lib "NAND9_X1"));
  let e = fresh_entry "INV_X1" in
  Alcotest.check_raises "missing pin"
    (Library.Pin_not_found { cell = "INV_X1"; pin = "Z" })
    (fun () -> ignore (Library.input_cap e "Z"))

let test_analytic_backend_runs () =
  let scenario = Scenario.scenario Scenario.worst_case in
  let cell = Catalog.find_exn "INV_X1" in
  let arc = List.hd (Cell.arcs cell) in
  let d, s =
    Characterize.arc_measure Characterize.Analytic ~scenario ~cell ~arc
      ~dir:Library.Rise ~slew:4e-11 ~load:2e-15
  in
  Alcotest.(check bool) "positive" true (d > 0. && s > 0.)

let test_warm_vs_cold_agreement () =
  (* Grid characterization warm-starts every transient from the previous
     point's settled operating point; [arc_measure] settles cold from zero.
     Warm seeding only accelerates the settle — it must not move the
     measured numbers.  Compare every coarse-grid point of the aged
     inverter, both directions, against a cold re-measurement. *)
  let scenario = Scenario.scenario Scenario.worst_case in
  let cell = Catalog.find_exn "INV_X1" in
  let cell_arc = List.hd (Cell.arcs cell) in
  let arc = List.hd (aged_entry "INV_X1").Library.arcs in
  List.iter
    (fun dir ->
      Array.iter
        (fun slew ->
          Array.iter
            (fun load ->
              let d_cold, s_cold =
                Characterize.arc_measure Characterize.default_backend ~scenario
                  ~cell ~arc:cell_arc ~dir ~slew ~load
              in
              let d_warm = Library.delay_of arc ~dir ~slew ~load in
              let s_warm = Library.out_slew_of arc ~dir ~slew ~load in
              Fixtures.check_close ~tol:(0.01 *. d_cold) "warm vs cold delay"
                d_cold d_warm;
              Fixtures.check_close ~tol:(0.01 *. s_cold) "warm vs cold slew"
                s_cold s_warm)
            Axes.coarse.Axes.loads)
        Axes.coarse.Axes.slews)
    [ Library.Rise; Library.Fall ]

let prop_lookup_within_table_bounds =
  let lib = Fixtures.fresh_library in
  Fixtures.qtest "bilinear lookup within bounds"
    QCheck2.Gen.(pair (float_range 5e-12 9.47e-10) (float_range 5e-16 2e-14))
    (fun (slew, load) ->
      let e = Library.find_exn (Lazy.force lib) "NAND2_X1" in
      let arc = List.hd e.Library.arcs in
      let d = Library.delay_of arc ~dir:Library.Fall ~slew ~load in
      d >= Nldm.min_value arc.Library.delay_fall -. 1e-12
      && d <= Nldm.max_value arc.Library.delay_fall +. 1e-12)

(* The bilinear formula that lived in [Interp] before [Nldm] took it over,
   kept as the reference every lookup must match bit for bit. *)
let reference_bilinear ~rows ~cols z r c =
  let i = Aging_util.Interp.bracket rows r and j = Aging_util.Interp.bracket cols c in
  let r0 = rows.(i) and r1 = rows.(i + 1) in
  let c0 = cols.(j) and c1 = cols.(j + 1) in
  let tr = (r -. r0) /. (r1 -. r0) in
  let tc = (c -. c0) /. (c1 -. c0) in
  let z00 = z.(i).(j) and z01 = z.(i).(j + 1) in
  let z10 = z.(i + 1).(j) and z11 = z.(i + 1).(j + 1) in
  let lo = z00 +. (tc *. (z01 -. z00)) in
  let hi = z10 +. (tc *. (z11 -. z10)) in
  lo +. (tr *. (hi -. lo))

(* A strictly increasing, non-uniform axis of 2-9 points. *)
let axis_gen =
  QCheck2.Gen.(
    map
      (fun (x0, steps) ->
        Array.of_list
          (List.rev
             (List.fold_left (fun acc d -> (List.hd acc +. d) :: acc) [ x0 ] steps)))
      (pair (float_range (-1.) 1.) (list_size (int_range 1 8) (float_range 0.01 2.))))

(* Probe coordinates: every grid point, cell interiors and points off the
   grid on both sides of the axis. *)
let probes axis =
  let n = Array.length axis in
  let lo = axis.(0) and hi = axis.(n - 1) in
  Array.to_list axis
  @ List.init (n - 1) (fun i -> (axis.(i) +. axis.(i + 1)) /. 2.)
  @ [ lo -. 0.37; lo -. 3.1; hi +. 0.41; hi +. 2.9 ]

let prop_lookup_matches_reference =
  Fixtures.qtest "lookup bit-identical to the reference bilinear"
    QCheck2.Gen.(triple axis_gen axis_gen (int_range 0 1_000_000))
    (fun (slews, loads, seed) ->
      let rng = Aging_util.Rng.create (Int64.of_int seed) in
      let values () =
        Array.map (fun _ -> Array.map (fun _ -> Aging_util.Rng.float rng -. 0.3) loads) slews
      in
      let delay = Nldm.make ~slews ~loads ~values:(values ()) in
      let slew = Nldm.make ~slews ~loads ~values:(values ()) in
      (* The same table on copied axes takes [lookup_pair]'s general path. *)
      let slew' =
        Nldm.make ~slews:(Array.copy slews) ~loads:(Array.copy loads)
          ~values:slew.Nldm.values
      in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun r ->
          List.for_all
            (fun c ->
              let v = Nldm.lookup delay ~slew:r ~load:c in
              let io = [| r; c; 0.; 0. |] and io' = [| r; c; 0.; 0. |] in
              let sides = Nldm.lookup_pair delay slew io in
              let sides' = Nldm.lookup_pair delay slew' io' in
              bits v = bits (reference_bilinear ~rows:slews ~cols:loads delay.Nldm.values r c)
              && bits io.(2) = bits v
              && bits io.(3) = bits (Nldm.lookup slew ~slew:r ~load:c)
              && bits io'.(2) = bits v
              && bits io'.(3) = bits io.(3)
              && sides' = sides)
            (probes loads))
        (probes slews))

let test_lookup_pair_sides () =
  let t = Nldm.make ~slews:[| 1.; 2. |] ~loads:[| 10.; 20. |] ~values:[| [| 0.; 1. |]; [| 2.; 3. |] |] in
  let sides r c = Nldm.lookup_pair t t [| r; c; 0.; 0. |] land 15 in
  Alcotest.(check int) "inside" 0 (sides 1.5 15.);
  Alcotest.(check int) "on the grid edge" 0 (sides 1. 20.);
  Alcotest.(check int) "slew below" Nldm.slew_low (sides 0.5 15.);
  Alcotest.(check int) "slew above, load below" (Nldm.slew_high lor Nldm.load_low) (sides 3. 5.);
  Alcotest.(check int) "load above" Nldm.load_high (sides 1.5 25.);
  Alcotest.(check int) "same bits for the slew table" (sides 3. 5.)
    ((Nldm.lookup_pair t t [| 3.; 5.; 0.; 0. |]) lsr 4)

let suite =
  [
    ("nldm: validation", `Quick, test_nldm_make_validation);
    ("nldm: lookup", `Quick, test_nldm_lookup);
    ("nldm: lookup_pair extrapolation sides", `Quick, test_lookup_pair_sides);
    ("nldm: map/fold", `Quick, test_nldm_map_fold);
    ("axes: paper grids", `Quick, test_axes);
    ("characterize: inverter", `Quick, test_characterized_inverter);
    ("characterize: delay monotone in load", `Quick, test_delay_monotone_in_load);
    ("characterize: aging slows rise arcs", `Quick, test_aging_slows_rise);
    ("characterize: NOR fall improves at large slew", `Quick, test_nor_fall_improves_at_large_slew);
    ("characterize: flip-flop entry", `Quick, test_flipflop_entry);
    ("library: out direction", `Quick, test_out_direction);
    ("merge: mini complete library", `Quick, test_merge_complete);
    ("library: duplicate rejected", `Quick, test_library_duplicate_rejected);
    ("io: save/load roundtrip", `Quick, test_io_roundtrip);
    ("io: parse errors", `Quick, test_io_parse_errors);
    ("characterize: analytic backend", `Quick, test_analytic_backend_runs);
    ("characterize: warm start agrees with cold", `Quick, test_warm_vs_cold_agreement);
    ("characterize: clean build report", `Quick, test_clean_build_report);
    ("characterize: escalated rungs rescue points", `Quick, test_retry_rescues_points);
    ("characterize: exhausted point raises Point_failed", `Quick, test_exhausted_point_raises);
    ("characterize: parallel build deterministic", `Slow, test_parallel_determinism);
    ("library: descriptive lookup errors", `Quick, test_descriptive_lookup_errors);
  ]

let props = [ prop_lookup_within_table_bounds; prop_lookup_matches_reference ]
