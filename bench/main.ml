(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (via Aging_core.Experiments) and, with the [micro] command,
   runs Bechamel microbenchmarks of the core kernels.

   Every scenario runs inside a recorded telemetry span, and the harness
   writes a machine-readable BENCH.json (per-scenario wall time plus the
   process counters accumulated over the run), then re-reads the file to
   check it parses and names every scenario it was asked to run.

   Usage:
     bench/main.exe                 run every experiment of Experiments.all
                                    (full mode)
     bench/main.exe --quick         reduced design set / image size
     bench/main.exe fig1 fig5a ...  run selected experiments
     bench/main.exe smoke           tiny-grid smoke scenario (seconds, no cache)
     bench/main.exe kernel          transient-engine throughput and solver
                                    effort over the paper grid
     bench/main.exe micro           Bechamel microbenchmarks only
     bench/main.exe --jobs N        worker domains for the figure runs
                                    (default: auto)
     bench/main.exe --bench-out F   write the report to F (default BENCH.json)
     bench/main.exe --ledger DIR    append one run-ledger record per scenario
                                    (inspect with `relaware obs`)
*)

module Experiments = Aging_core.Experiments
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Json = Aging_obs.Json
module Run_ledger = Aging_obs.Run_ledger
module Runtime = Aging_obs.Runtime

(* Per-scenario runtime story: RSS peak plus the GC work the scenario
   performed (deltas of the cumulative [Runtime.totals] counters), merged
   into the BENCH.json scenario rows next to "seconds". *)
let scenario_runtime : (string, (string * Json.t) list) Hashtbl.t =
  Hashtbl.create 8

let runtime_fields ~(before : Runtime.totals) ~(after : Runtime.totals) =
  let opt name v = Option.map (fun x -> (name, Json.of_float x)) v in
  List.filter_map Fun.id
    [
      opt "peak_rss_mb" after.Runtime.hwm_mb;
      opt "rss_mb" after.Runtime.rss_mb;
      Some
        ( "minor_words",
          Json.of_float (after.Runtime.minor_words -. before.Runtime.minor_words) );
      Some
        ( "promoted_words",
          Json.of_float
            (after.Runtime.promoted_words -. before.Runtime.promoted_words) );
      Some
        ( "major_collections",
          Json.Int
            (after.Runtime.major_collections - before.Runtime.major_collections)
        );
      Some ("heap_mb", Json.of_float after.Runtime.heap_mb);
    ]

let run_experiment t name =
  match List.assoc_opt name Experiments.all with
  | Some run ->
    print_string (run t);
    print_newline ()
  | None -> failwith ("unknown experiment " ^ name)

(* ------------------------- smoke scenario ------------------------- *)

(* A few seconds end to end: characterize the cells of a 4-bit counter on
   the coarse 3x3 grid (fresh corner, no cache directory touched) and run
   one STA pass over it.  Exercises engine, characterization and STA
   counters so the emitted BENCH.json has real content. *)
let smoke () =
  let design = Aging_designs.Designs.counter ~bits:4 in
  let names = Hashtbl.create 8 in
  Array.iter
    (fun (inst : Aging_netlist.Netlist.instance) ->
      Hashtbl.replace names
        (Aging_netlist.Netlist.base_cell_name inst.Aging_netlist.Netlist.cell_name)
        ())
    design.Aging_netlist.Netlist.instances;
  let cells =
    Hashtbl.fold
      (fun name () acc -> Aging_cells.Catalog.find_exn name :: acc)
      names []
  in
  let library =
    Aging_liberty.Characterize.fresh_library ~cells
      ~axes:Aging_liberty.Axes.coarse ()
  in
  let analysis = Aging_sta.Timing.analyze ~library design in
  let min_period = Aging_sta.Timing.min_period analysis in
  (* Noted QoR lands in this scenario's ledger record (if --ledger is on);
     without a ledger the accumulator is simply never drained. *)
  Run_ledger.note_qor "smoke.min_period_ps" (min_period *. 1e12);
  Printf.printf "smoke: counter4, %d cells, min period %.3e s\n%!"
    (List.length cells) min_period

(* ------------------------- kernel scenario ------------------------- *)

(* Raw transient-kernel throughput: characterize a small cell set over the
   paper's 7x7 grid (sequential, no cache) and report per-point throughput
   plus the solver effort per point/step.  The QoR rows make `obs diff`
   gate both speed (points/s) and solver effort (Jacobian refreshes and
   Newton iterations), so a kernel regression that trades one for the
   other is caught either way. *)
let kernel () =
  let cells =
    List.map Aging_cells.Catalog.find_exn [ "INV_X1"; "NAND2_X1"; "NOR2_X1" ]
  in
  let scenario =
    Aging_physics.Scenario.scenario Aging_physics.Scenario.worst_case
  in
  let counter name =
    Option.value (Metrics.value_by_name name) ~default:0.
  in
  let steps0 = counter "engine.steps" in
  let jac0 = counter "engine.jacobian_refreshes" in
  let newton0 = counter "engine.newton_iterations" in
  let t0 = Span.elapsed () in
  let _lib, report =
    Aging_liberty.Characterize.library_report ~cells
      ~axes:Aging_liberty.Axes.paper ~name:"kernel" ~scenario ()
  in
  let wall = Span.elapsed () -. t0 in
  let totals = Aging_liberty.Characterize.report_totals report in
  let points = float_of_int totals.Aging_liberty.Characterize.points in
  let steps = counter "engine.steps" -. steps0 in
  let jacs = counter "engine.jacobian_refreshes" -. jac0 in
  let newtons = counter "engine.newton_iterations" -. newton0 in
  let per base v = if base > 0. then v /. base else 0. in
  Run_ledger.note_qor "engine.points_per_s" (per wall points);
  Run_ledger.note_qor "engine.steps_per_point" (per points steps);
  Run_ledger.note_qor "engine.jacobian_refreshes_per_point" (per points jacs);
  Run_ledger.note_qor "engine.newton_iters_per_step" (per steps newtons);
  Printf.printf
    "kernel: %d points in %.2f s (%.0f points/s); per point %.1f steps, %.2f \
     Jacobians; %.2f Newton iters/step\n\
     %!"
    totals.Aging_liberty.Characterize.points wall (per wall points)
    (per points steps) (per points jacs) (per steps newtons)

(* ------------------------- BENCH.json ------------------------- *)

let bench_json ~mode =
  let scenarios =
    List.filter_map
      (fun (s : Span.t) ->
        if s.Span.name <> "bench.scenario" then None
        else
          let name =
            match List.assoc_opt "scenario" s.Span.attrs with
            | Some n -> n
            | None -> s.Span.name
          in
          let runtime =
            Option.value ~default:[] (Hashtbl.find_opt scenario_runtime name)
          in
          Some
            (name, Json.Obj (("seconds", Json.Float s.Span.duration) :: runtime)))
      (Span.roots ())
  in
  let counters =
    List.filter_map
      (function
        | name, Metrics.Counter_value n -> Some (name, Json.Int n)
        | _, Metrics.Gauge_value _ -> None)
      (Metrics.snapshot ())
  in
  Json.Obj
    [
      ("mode", Json.String mode);
      ("scenarios", Json.Obj scenarios);
      ("counters", Json.Obj counters);
    ]

let write_bench path ~mode =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true (bench_json ~mode));
  output_char oc '\n';
  close_out oc

(* Re-read what we just wrote: it must parse, and its "scenarios" object
   must name every scenario that ran.  A failure exits nonzero so the dune
   smoke rule doubles as a test of the report format. *)
let validate_bench path ~expected =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let doc =
    try Json.of_string text
    with Json.Parse_error msg ->
      Printf.eprintf "%s: invalid JSON: %s\n%!" path msg;
      exit 1
  in
  let scenarios =
    match Json.member "scenarios" doc with
    | Some (Json.Obj kvs) -> kvs
    | Some _ | None ->
      Printf.eprintf "%s: missing \"scenarios\" object\n%!" path;
      exit 1
  in
  List.iter
    (fun name ->
      match List.assoc_opt name scenarios with
      | Some entry
        when Option.bind (Json.member "seconds" entry) Json.to_float <> None ->
        ()
      | Some _ ->
        Printf.eprintf "%s: scenario %s has no \"seconds\"\n%!" path name;
        exit 1
      | None ->
        Printf.eprintf "%s: scenario %s missing\n%!" path name;
        exit 1)
    expected;
  Printf.printf "%s: %d scenario(s), ok\n%!" path (List.length expected)

(* ------------------------- microbenchmarks ------------------------- *)

let micro () =
  let open Bechamel in
  let deglib =
    Aging_core.Degradation_library.create ~cache_dir:"_libcache" ()
  in
  let fresh = Aging_core.Degradation_library.fresh deglib in
  let nand = Aging_liberty.Library.find_exn fresh "NAND2_X1" in
  let arc = List.hd nand.Aging_liberty.Library.arcs in
  let design = Aging_designs.Designs.risc5 () in
  let structure = Aging_sta.Timing.prepare_structure design in
  (* One swap and its rollback: the first instance from mid-design on
     that has an X2 variant, re-bound to it. *)
  let timer = Aging_sta.Timing.Incremental.create ~library:fresh design in
  let swap_inst, swap_cell =
    let insts = design.Aging_netlist.Netlist.instances in
    let rec from i =
      let cell = Aging_netlist.Netlist.catalog_cell insts.(i) in
      let x2 = cell.Aging_cells.Cell.base ^ "_X2" in
      if x2 <> cell.Aging_cells.Cell.name && Aging_liberty.Library.find fresh x2 <> None
      then (i, x2)
      else from ((i + 1) mod Array.length insts)
    in
    from (Array.length insts / 2)
  in
  let compiled = Aging_netlist.Netlist.compile design in
  let state = Aging_netlist.Netlist.initial_state design in
  let inputs =
    List.map (fun (p, _) -> (p, false)) design.Aging_netlist.Netlist.input_ports
  in
  (* One 1-D pass of eight 8-sample vectors (13-bit signed) through the
     fresh DCT at its STA period. *)
  let dct_design = Aging_designs.Designs.dct () in
  let dct_structure = Aging_sta.Timing.prepare_structure dct_design in
  let dct = Aging_sim.Event_sim.prepare ~library:fresh dct_design in
  let dct_period = Aging_sim.Event_sim.min_period dct in
  let dct_vectors =
    let rng = Aging_util.Rng.create 8L in
    List.init 8 (fun _ -> Array.init 8 (fun _ -> Aging_util.Rng.int rng 8192 - 4096))
  in
  let cell = Aging_cells.Catalog.find_exn "INV_X1" in
  let scenario =
    Aging_physics.Scenario.scenario Aging_physics.Scenario.worst_case
  in
  let inv_arc = List.hd (Aging_cells.Cell.arcs cell) in
  let tests =
    [
      Test.make ~name:"nldm-lookup" (Staged.stage (fun () ->
          Aging_liberty.Nldm.lookup arc.Aging_liberty.Library.delay_rise
            ~slew:5.3e-11 ~load:3.1e-15));
      Test.make ~name:"sta-full-pass-risc5" (Staged.stage (fun () ->
          Aging_sta.Timing.analyze ~structure ~library:fresh design));
      Test.make ~name:"sta-full-pass-dct" (Staged.stage (fun () ->
          Aging_sta.Timing.analyze ~structure:dct_structure ~library:fresh dct_design));
      Test.make ~name:"sta-swap-risc5" (Staged.stage (fun () ->
          Aging_sta.Timing.Incremental.swap timer ~inst:swap_inst ~cell:swap_cell;
          Aging_sta.Timing.Incremental.rollback timer));
      Test.make ~name:"cycle-eval-risc5" (Staged.stage (fun () ->
          Aging_netlist.Netlist.compiled_cycle compiled state ~inputs));
      Test.make ~name:"event-sim-dct-pass" (Staged.stage (fun () ->
          Aging_core.System_eval.run_vectors dct ~period:dct_period dct_vectors));
      Test.make ~name:"transient-inv-arc" (Staged.stage (fun () ->
          Aging_liberty.Characterize.arc_measure
            Aging_liberty.Characterize.default_backend ~scenario ~cell
            ~arc:inv_arc ~dir:Aging_liberty.Library.Rise ~slew:4e-11
            ~load:2e-15));
      Test.make ~name:"bti-degradation" (Staged.stage (fun () ->
          Aging_physics.Degradation.of_stress
            (Aging_physics.Device.pmos ~w:1.8e-7)
            (Aging_physics.Bti.stress ~duty:0.7 ())));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ~kde:None ()) Toolkit.Instance.[ monotonic_clock ] test
  in
  let analyze results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------- driver ------------------------- *)

let () =
  let bench_out = ref "BENCH.json" in
  let quick = ref false in
  let jobs = ref (Aging_util.Pool.default_jobs ()) in
  let ledger = ref None in
  let rest = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: tl ->
      quick := true;
      parse tl
    | "--bench-out" :: file :: tl ->
      bench_out := file;
      parse tl
    | [ "--bench-out" ] ->
      prerr_endline "--bench-out requires a file argument";
      exit 2
    | "--ledger" :: dir :: tl ->
      ledger := Some dir;
      parse tl
    | [ "--ledger" ] ->
      prerr_endline "--ledger requires a directory argument";
      exit 2
    | ("--jobs" | "-j") :: n :: tl when int_of_string_opt n <> None ->
      jobs := max 1 (Option.get (int_of_string_opt n));
      parse tl
    | [ ("--jobs" | "-j") ] | ("--jobs" | "-j") :: _ ->
      prerr_endline "--jobs requires an integer argument";
      exit 2
    | a :: tl ->
      rest := a :: !rest;
      parse tl
  in
  parse (List.tl (Array.to_list Sys.argv));
  let args = List.rev !rest in
  if args = [ "micro" ] then micro ()
  else begin
    Span.set_recording true;
    (* One ledger record per scenario: tool "bench", subcommand = scenario
       name, spans restricted to that scenario's root, wall time from the
       monotonic clock, scenario seconds as QoR. *)
    let scenario name f =
      let started_at = Span.now () in
      let t0 = Span.elapsed () in
      let before = Runtime.totals () in
      Span.with_ "bench.scenario" ~attrs:[ ("scenario", name) ] f;
      let wall = Span.elapsed () -. t0 in
      let after = Runtime.totals () in
      Hashtbl.replace scenario_runtime name (runtime_fields ~before ~after);
      Printf.printf "[%s done in %.1f s]\n\n%!" name wall;
      Option.iter
        (fun dir ->
          let spans =
            List.filter
              (fun (s : Span.t) ->
                s.Span.name = "bench.scenario"
                && List.assoc_opt "scenario" s.Span.attrs = Some name)
              (Span.roots ())
          in
          Run_ledger.note_qor "seconds" wall;
          (* The runtime story rides the record too, so `obs history`
             can watch memory growth across bench runs. *)
          Option.iter (Run_ledger.note_qor "peak_rss_mb") after.Runtime.hwm_mb;
          Run_ledger.note_qor "minor_words"
            (after.Runtime.minor_words -. before.Runtime.minor_words);
          Run_ledger.note_qor "major_collections"
            (float_of_int
               (after.Runtime.major_collections
               - before.Runtime.major_collections));
          let record =
            Run_ledger.capture ~tool:"bench" ~subcommand:name ~spans
              ~started_at ~wall_s:wall ()
          in
          ignore (Run_ledger.append ~dir record))
        !ledger
    in
    let mode, selected =
      match args with
      | [ "smoke" ] -> ("smoke", [ "smoke" ])
      | [ "kernel" ] -> ("kernel", [ "kernel" ])
      | [] ->
        ((if !quick then "quick" else "full"), List.map fst Experiments.all)
      | names -> ((if !quick then "quick" else "full"), names)
    in
    Printf.printf "reliability-aware design reproduction — %s mode\n\n%!" mode;
    if mode = "smoke" then scenario "smoke" smoke
    else if mode = "kernel" then scenario "kernel" kernel
    else begin
      let t = Experiments.create ~quick:!quick ~jobs:!jobs () in
      List.iter
        (fun name -> scenario name (fun () -> run_experiment t name))
        selected
    end;
    write_bench !bench_out ~mode;
    validate_bench !bench_out ~expected:selected
  end
