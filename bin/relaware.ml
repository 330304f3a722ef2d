(* relaware: command-line front end of the reliability-aware design flow.

   Subcommands:
     characterize  build a degradation-aware library and write it as .alib
     report        static timing of a benchmark design, fresh and aged
     guardband     guardband estimation (full / vth-only / single-opc / cp-only)
     synth         traditional vs aging-aware synthesis comparison
     experiment    run one of the paper's figure reproductions
     obs           inspect run-ledger records: report / trace / diff
     serve         resident aging-analysis daemon (deadlines, backpressure)
     query         client with capped, seeded exponential backoff
     soak          chaos soak: concurrent clients vs an injected-fault daemon
*)

open Cmdliner

module Scenario = Aging_physics.Scenario
module Degradation = Aging_physics.Degradation
module Axes = Aging_liberty.Axes
module Io = Aging_liberty.Io
module Characterize = Aging_liberty.Characterize
module Timing = Aging_sta.Timing
module Report = Aging_sta.Report
module Deg = Aging_core.Degradation_library
module Guardband = Aging_core.Guardband
module Designs = Aging_designs.Designs
module Experiments = Aging_core.Experiments

(* ------------------------- telemetry ------------------------- *)

(* Every subcommand shares the observability surface: log verbosity,
   optional metrics/trace dumps written when the command finishes (or
   dies — the dump runs in a [finally], so a crashed characterization
   still leaves its counters behind for a post-mortem), and an optional
   run-ledger append — the persistent record [relaware obs] reads back. *)

module Obs = Aging_obs
module Run_ledger = Aging_obs.Run_ledger
module Tablefmt = Aging_util.Tablefmt

type telemetry = {
  verbose : bool;
  quiet : bool;
  metrics_out : string option;
  trace_out : string option;
  ledger_dir : string option;
}

let telemetry_term =
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Debug-level logging (overrides $(b,AGING_LOG)).")
  in
  let quiet =
    Arg.(value & flag
         & info [ "q"; "quiet" ] ~doc:"Silence all progress logging.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write the metrics registry (solver counters, cache \
                   hit/miss, per-span timing histograms) as JSON to \
                   $(docv) on exit; $(b,-) writes to stdout.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record hierarchical timed spans and write the trace as \
                   JSON to $(docv) on exit; $(b,-) writes to stdout.")
  in
  let ledger =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"DIR"
             ~doc:"Append a run record (argv, git rev, wall time, outcome, \
                   metrics snapshot, recorded spans, QoR numbers) to \
                   $(docv)/ledger.jsonl on exit.  Inspect with \
                   $(b,relaware obs).")
  in
  Term.(const (fun verbose quiet metrics_out trace_out ledger_dir ->
            { verbose; quiet; metrics_out; trace_out; ledger_dir })
        $ verbose $ quiet $ metrics $ trace $ ledger)

(* "-" dumps to stdout so telemetry can be piped straight into jq. *)
let write_file path text =
  if path = "-" then (print_string text; flush stdout)
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  end

let with_telemetry ~cmd t f =
  if t.quiet then Obs.Log.set_level Obs.Log.Quiet
  else if t.verbose then Obs.Log.set_level Obs.Log.Debug;
  if t.trace_out <> None || t.ledger_dir <> None then
    Obs.Span.set_recording true;
  let started_at = Unix.gettimeofday () in
  let m0 = Obs.Span.elapsed () in
  let dump outcome =
    Option.iter
      (fun path ->
        write_file path
          (Obs.Json.to_string ~pretty:true (Obs.Metrics.to_json ()) ^ "\n"))
      t.metrics_out;
    Option.iter
      (fun path ->
        write_file path
          (Obs.Json.to_string ~pretty:true (Obs.Span.to_json ()) ^ "\n"))
      t.trace_out;
    Option.iter
      (fun dir ->
        let record =
          Run_ledger.capture ~tool:"relaware" ~subcommand:cmd ~outcome
            ~started_at ~wall_s:(Obs.Span.elapsed () -. m0) ()
        in
        let path = Run_ledger.append ~dir record in
        Obs.Log.infof "ledger" "run %s appended to %s" record.Run_ledger.id
          path)
      t.ledger_dir
  in
  match f () with
  | () -> dump Run_ledger.Finished
  | exception e ->
    dump (Run_ledger.Failed (Printexc.to_string e));
    raise e

(* ------------------------- shared arguments ------------------------- *)

let corner_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ p; n ] -> begin
      match (float_of_string_opt p, float_of_string_opt n) with
      | Some lambda_p, Some lambda_n -> begin
        match Scenario.corner ~lambda_p ~lambda_n with
        | c -> Ok c
        | exception Invalid_argument msg -> Error (`Msg msg)
      end
      | None, _ | _, None -> Error (`Msg "expected <lambda_p>,<lambda_n>")
    end
    | _ -> Error (`Msg "expected <lambda_p>,<lambda_n>")
  in
  let print fmt c = Format.fprintf fmt "%s" (Scenario.suffix c) in
  Arg.conv (parse, print)

let corner_arg =
  Arg.(value & opt corner_conv Scenario.worst_case
       & info [ "corner" ] ~docv:"LP,LN"
           ~doc:"Aging corner as pMOS,nMOS duty cycles (default worst case 1,1).")

let years_arg =
  Arg.(value & opt float 10. & info [ "years" ] ~docv:"YEARS" ~doc:"Lifetime in years.")

let grid_conv = Arg.enum [ ("paper", Axes.paper); ("coarse", Axes.coarse) ]

let axes_arg =
  Arg.(value & opt grid_conv Axes.paper
       & info [ "axes" ] ~docv:"GRID" ~doc:"OPC grid: paper (7x7) or coarse (3x3).")

let cache_arg =
  Arg.(value & opt string "_libcache"
       & info [ "cache" ] ~docv:"DIR" ~doc:"Library cache directory.")

let jobs_arg =
  Arg.(value & opt int (Aging_util.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for characterization (cells and corners in \
                 parallel; results are identical to $(b,--jobs 1)).  \
                 Default: $(b,AGING_JOBS) if set, else the recommended \
                 domain count of the machine.")

let design_arg =
  let all = [ "DSP"; "FFT"; "RISC-6P"; "RISC-5P"; "VLIW"; "DCT"; "IDCT" ] in
  Arg.(required & opt (some (enum (List.map (fun d -> (d, d)) all))) None
       & info [ "design" ] ~docv:"NAME" ~doc:"Benchmark design name.")

let deglib_of ~axes ~years ~cache ~jobs =
  Deg.create ~axes ~years ~cache_dir:cache ~jobs ()

let design_of name =
  match Designs.by_name name with
  | Some d -> d
  | None -> failwith ("unknown design " ^ name)

(* --------------------------- characterize --------------------------- *)

let cells_arg =
  Arg.(value & opt (some string) None
       & info [ "cells" ] ~docv:"NAMES"
           ~doc:"Restrict characterization to these comma-separated catalog \
                 cells (default: the full catalog).")

let cells_of = function
  | None -> None
  | Some s ->
    Some
      (String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun n -> n <> "")
      |> List.map Aging_cells.Catalog.find_exn)

(* QoR probe for ledgered characterize runs: library-wide delay statistics
   plus a static timing pass of the 4-bit counter against the built aged
   library vs a fresh characterization of the same cells.  This puts a
   guardband number — a genuine quality axis, not just wall time and
   counters — into every record, so [obs diff] can catch a physics or
   characterization regression between two commits. *)
let note_characterize_qor ~axes ~jobs lib =
  let entries = Aging_liberty.Library.entries lib in
  let n = List.length entries in
  Run_ledger.note_qor "lib.cells" (float_of_int n);
  Run_ledger.note_qor "lib.arcs"
    (float_of_int
       (List.fold_left
          (fun a (e : Aging_liberty.Library.entry) ->
            a + List.length e.Aging_liberty.Library.arcs)
          0 entries));
  (* Arc-less cells (tie cells) report [neg_infinity]; keep them out of
     the statistics. *)
  let worsts =
    List.map Aging_liberty.Library.worst_delay entries
    |> List.filter Float.is_finite
  in
  if worsts <> [] then begin
    Run_ledger.note_qor "lib.worst_delay_ps"
      (1e12 *. List.fold_left Float.max neg_infinity worsts);
    Run_ledger.note_qor "lib.mean_worst_delay_ps"
      (1e12
      *. (List.fold_left ( +. ) 0. worsts
         /. float_of_int (List.length worsts)))
  end;
  let counter = Designs.counter ~bits:4 in
  let probe_cells =
    Array.to_list counter.Aging_netlist.Netlist.instances
    |> List.map (fun (i : Aging_netlist.Netlist.instance) ->
           Aging_netlist.Netlist.base_cell_name i.Aging_netlist.Netlist.cell_name)
    |> List.sort_uniq String.compare
  in
  let missing =
    List.filter (fun c -> Aging_liberty.Library.find lib c = None) probe_cells
  in
  if missing <> [] then
    Obs.Log.warnf "ledger" "guardband probe skipped: library lacks %s"
      (String.concat ", " missing)
  else begin
    let cells = List.map Aging_cells.Catalog.find_exn probe_cells in
    let fresh_lib = Characterize.fresh_library ~cells ~jobs ~axes () in
    let aged = Timing.analyze ~library:lib counter in
    let fresh = Timing.analyze ~library:fresh_lib counter in
    let fresh_ps = Timing.min_period fresh *. 1e12 in
    let aged_ps = Timing.min_period aged *. 1e12 in
    Run_ledger.note_qor "probe.fresh_ps" fresh_ps;
    Run_ledger.note_qor "probe.aged_ps" aged_ps;
    Run_ledger.note_qor "probe.guardband_ps" (aged_ps -. fresh_ps);
    Run_ledger.note_qor "probe.hold_slack_ps"
      (Timing.worst_hold_slack aged *. 1e12)
  end

let characterize_cmd =
  let out_arg =
    Arg.(value & opt string "degradation_aware.alib"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output .alib path.")
  in
  let report_arg =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Print the characterization fault/repair report (points \
                   measured / retried / repaired / failed per cell and arc).")
  in
  let fault_rate_arg =
    Arg.(value & opt float 0.
         & info [ "fault-rate" ] ~docv:"P"
             ~doc:"Deterministically inject transient failures into this \
                   fraction of grid points (testing the retry/fallback \
                   machinery; bypasses the cache via the fingerprint).")
  in
  let fault_seed_arg =
    Arg.(value & opt int 0
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seed selecting which grid points the injected faults hit.")
  in
  let surrogate_arg =
    Arg.(value & flag
         & info [ "surrogate" ]
             ~doc:"Characterize through the learned surrogate: simulate a \
                   sparse deterministic subsample of each (slew, load) \
                   grid, fit per-arc ridge models of the ratio to five \
                   fully characterized anchor corners, and serve every \
                   grid point whose predicted confidence interval stays \
                   within the tolerance; lower-confidence points are \
                   re-simulated.")
  in
  let surrogate_tol_arg =
    Arg.(value & opt float 2.0
         & info [ "surrogate-tol" ] ~docv:"PCT"
             ~doc:"Relative confidence tolerance of the surrogate, in \
                   percent (default 2).  A non-positive tolerance admits \
                   no prediction and degenerates to the exact full sweep.")
  in
  let surrogate_sample_arg =
    Arg.(value & opt int 12
         & info [ "surrogate-sample" ] ~docv:"N"
             ~doc:"Target seed simulations per (slew, load) grid (default \
                   12).")
  in
  let run tele corner years axes cache jobs cells out report fault_rate
      fault_seed surrogate surrogate_tol surrogate_sample =
    with_telemetry ~cmd:"characterize" tele @@ fun () ->
    (* Library builds can run for minutes; keep the runtime gauges moving
       so the ledger record (and any scrape) sees live GC/RSS numbers. *)
    Obs.Runtime.start_global ();
    let backend =
      if fault_rate > 0. then
        Characterize.Faulty
          ({ Characterize.rate = fault_rate; seed = fault_seed; depth = 1 },
           Characterize.default_backend)
      else Characterize.default_backend
    in
    let cells = cells_of cells in
    let surrogate =
      if surrogate then
        Some
          (Aging_liberty.Surrogate.config ~tol:(surrogate_tol /. 100.)
             ~sample:surrogate_sample ())
      else None
    in
    let deglib =
      Deg.create ~backend ?cells ~axes ~years ~cache_dir:cache ~jobs
        ?surrogate ()
    in
    let lib = Deg.corner deglib corner in
    Io.save out lib;
    Printf.printf "wrote %s: %d cells, corner %s, %g years\n" out
      (List.length (Aging_liberty.Library.entries lib))
      (Scenario.suffix corner) years;
    if tele.ledger_dir <> None then begin
      Run_ledger.note "jobs" (Obs.Json.Int jobs);
      note_characterize_qor ~axes ~jobs lib;
      (* Surrogate accounting of the corner build (anchor builds carry no
         provenance and contribute nothing here). *)
      List.iter
        (fun (_, r) ->
          match Characterize.report_surrogate r with
          | None -> ()
          | Some st ->
            Run_ledger.note_qor "surrogate.speedup"
              st.Characterize.fit_speedup;
            Run_ledger.note_qor "surrogate.predicted"
              (float_of_int st.Characterize.fit_predicted);
            Run_ledger.note_qor "surrogate.fallback"
              (float_of_int st.Characterize.fit_fallback))
        (Deg.build_reports deglib)
    end;
    if report then begin
      match Deg.build_reports deglib with
      | [] ->
        print_string
          "library served from cache; no characterization was performed\n"
      | reports ->
        List.iter
          (fun (name, r) ->
            Printf.printf "[%s]\n%s" name (Characterize.report_to_string r))
          reports
    end
  in
  Cmd.v
    (Cmd.info "characterize" ~doc:"Build a degradation-aware cell library")
    Term.(const run $ telemetry_term $ corner_arg $ years_arg $ axes_arg
          $ cache_arg $ jobs_arg $ cells_arg $ out_arg $ report_arg
          $ fault_rate_arg $ fault_seed_arg $ surrogate_arg
          $ surrogate_tol_arg $ surrogate_sample_arg)

(* ------------------------------ report ------------------------------ *)

let report_cmd =
  let run tele name corner years axes cache jobs =
    with_telemetry ~cmd:"report" tele @@ fun () ->
    let deglib = deglib_of ~axes ~years ~cache ~jobs in
    let design = design_of name in
    let fresh = Timing.analyze ~library:(Deg.fresh deglib) design in
    let aged = Timing.analyze ~library:(Deg.corner deglib corner) design in
    if tele.ledger_dir <> None then begin
      let fresh_ps = Timing.min_period fresh *. 1e12 in
      let aged_ps = Timing.min_period aged *. 1e12 in
      Run_ledger.note "design" (Obs.Json.String name);
      Run_ledger.note_qor "fresh_ps" fresh_ps;
      Run_ledger.note_qor "aged_ps" aged_ps;
      Run_ledger.note_qor "guardband_ps" (aged_ps -. fresh_ps)
    end;
    print_string (Report.summary fresh);
    print_string (Report.guardband ~fresh ~aged)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Static timing of a benchmark design, fresh vs aged")
    Term.(const run $ telemetry_term $ design_arg $ corner_arg $ years_arg
          $ axes_arg $ cache_arg $ jobs_arg)

(* ---------------------------- guardband ---------------------------- *)

let guardband_cmd =
  let method_arg =
    Arg.(value & opt (enum [ ("full", `Full); ("vth-only", `Vth); ("single-opc", `Sopc);
                             ("cp-only", `Cp) ]) `Full
         & info [ "method" ] ~docv:"M"
             ~doc:"full | vth-only | single-opc | cp-only (prior-work models).")
  in
  let run tele name corner years axes cache jobs meth =
    with_telemetry ~cmd:"guardband" tele @@ fun () ->
    let deglib = deglib_of ~axes ~years ~cache ~jobs in
    let design = design_of name in
    let g =
      match meth with
      | `Full -> Guardband.static ~deglib ~corner design
      | `Vth -> Guardband.static ~mode:Degradation.Vth_only ~deglib ~corner design
      | `Sopc -> Guardband.single_opc ~deglib ~corner design
      | `Cp -> Guardband.initial_cp_only ~deglib ~corner design
    in
    if tele.ledger_dir <> None then begin
      Run_ledger.note "design" (Obs.Json.String name);
      Run_ledger.note_qor "fresh_ps" (g.Guardband.fresh_period *. 1e12);
      Run_ledger.note_qor "aged_ps" (g.Guardband.aged_period *. 1e12);
      Run_ledger.note_qor "guardband_ps" (g.Guardband.guardband *. 1e12)
    end;
    Printf.printf "%s: fresh %.1f ps, aged %.1f ps, guardband %.1f ps (%.1f%%)\n"
      name
      (g.Guardband.fresh_period *. 1e12)
      (g.Guardband.aged_period *. 1e12)
      (g.Guardband.guardband *. 1e12)
      (g.Guardband.guardband /. g.Guardband.fresh_period *. 100.)
  in
  Cmd.v
    (Cmd.info "guardband" ~doc:"Estimate the aging guardband of a design")
    Term.(const run $ telemetry_term $ design_arg $ corner_arg $ years_arg
          $ axes_arg $ cache_arg $ jobs_arg $ method_arg)

(* ------------------------------ synth ------------------------------ *)

let synth_cmd =
  let run tele name corner years axes cache jobs =
    with_telemetry ~cmd:"synth" tele @@ fun () ->
    let deglib = deglib_of ~axes ~years ~cache ~jobs in
    let design = design_of name in
    let c = Aging_core.Aging_synthesis.run ~corner ~deglib design in
    let module AS = Aging_core.Aging_synthesis in
    if tele.ledger_dir <> None then begin
      Run_ledger.note "design" (Obs.Json.String name);
      Run_ledger.note_qor "trad_fresh_ps" (c.AS.trad_fresh_period *. 1e12);
      Run_ledger.note_qor "trad_aged_ps" (c.AS.trad_aged_period *. 1e12);
      Run_ledger.note_qor "aware_fresh_ps" (c.AS.aware_fresh_period *. 1e12);
      Run_ledger.note_qor "aware_aged_ps" (c.AS.aware_aged_period *. 1e12);
      Run_ledger.note_qor "guardband_reduction_pct"
        (AS.guardband_reduction c *. 100.);
      Run_ledger.note_qor "area_overhead_pct" (AS.area_overhead c *. 100.)
    end;
    Printf.printf
      "traditional: fresh %.1f ps, aged %.1f ps\n\
       aging-aware: fresh %.1f ps, aged %.1f ps\n\
       required guardband %.1f ps, contained %.1f ps (reduction %.1f%%)\n\
       frequency gain %.2f%%, area overhead %.2f%%\n"
      (c.AS.trad_fresh_period *. 1e12)
      (c.AS.trad_aged_period *. 1e12)
      (c.AS.aware_fresh_period *. 1e12)
      (c.AS.aware_aged_period *. 1e12)
      (AS.required_guardband c *. 1e12)
      (AS.contained_guardband c *. 1e12)
      (AS.guardband_reduction c *. 100.)
      (AS.frequency_gain c *. 100.)
      (AS.area_overhead c *. 100.)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Traditional vs aging-aware synthesis of a design")
    Term.(const run $ telemetry_term $ design_arg $ corner_arg $ years_arg
          $ axes_arg $ cache_arg $ jobs_arg)

(* ------------------------------ export ------------------------------ *)

let export_cmd =
  let what_arg =
    Arg.(required & pos 0 (some (enum [ ("verilog", `Verilog); ("sdf", `Sdf);
                                        ("liberty", `Liberty) ])) None
         & info [] ~docv:"WHAT" ~doc:"verilog | sdf | liberty")
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let design_opt =
    let all = [ "DSP"; "FFT"; "RISC-6P"; "RISC-5P"; "VLIW"; "DCT"; "IDCT" ] in
    Arg.(value & opt (some (enum (List.map (fun d -> (d, d)) all))) None
         & info [ "design" ] ~docv:"NAME" ~doc:"Design (verilog/sdf exports).")
  in
  let run tele what name corner years axes cache jobs out =
    with_telemetry ~cmd:"export" tele @@ fun () ->
    let deglib = deglib_of ~axes ~years ~cache ~jobs in
    let required_design () =
      match name with
      | Some n -> design_of n
      | None -> failwith "--design is required for verilog/sdf exports"
    in
    begin
      match what with
      | `Liberty ->
        Aging_liberty.Liberty_format.save out (Deg.corner deglib corner)
      | `Verilog -> Aging_netlist.Export.save out (required_design ())
      | `Sdf ->
        let analysis =
          Timing.analyze ~library:(Deg.corner deglib corner) (required_design ())
        in
        Aging_sta.Sdf.save out analysis
    end;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write Verilog netlists, aged SDF files, or .lib libraries")
    Term.(const run $ telemetry_term $ what_arg $ design_opt $ corner_arg
          $ years_arg $ axes_arg $ cache_arg $ jobs_arg $ out_arg)

(* ---------------------------- experiment ---------------------------- *)

let experiment_cmd =
  let which_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FIG"
             ~doc:"fig1 fig2 fig3 fig5a fig5b fig5c fig6a fig6b fig6c fig7 \
                   libgen ablate-backend ablate-slew ablate-topk")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced design set / image size.")
  in
  let run tele which quick cache jobs =
    with_telemetry ~cmd:("experiment-" ^ which) tele @@ fun () ->
    let t = Experiments.create ~quick ~cache_dir:cache ~jobs () in
    let report =
      match which with
      | "fig1" -> Experiments.fig1 t
      | "fig2" -> Experiments.fig2 t
      | "fig3" -> Experiments.fig3 t
      | "fig5a" -> Experiments.fig5a t
      | "fig5b" -> Experiments.fig5b t
      | "fig5c" -> Experiments.fig5c t
      | "fig6a" -> Experiments.fig6a t
      | "fig6b" -> Experiments.fig6b t
      | "fig6c" -> Experiments.fig6c t
      | "fig7" -> Experiments.fig7 t ()
      | "libgen" -> Experiments.libgen t ()
      | "ablate-backend" -> Experiments.ablate_backend t
      | "ablate-slew" -> Experiments.ablate_slew t
      | "ablate-topk" -> Experiments.ablate_topk t
      | other -> failwith ("unknown experiment: " ^ other)
    in
    print_string report
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's figures")
    Term.(const run $ telemetry_term $ which_arg $ quick_arg $ cache_arg
          $ jobs_arg)

(* ------------------------------ check ------------------------------ *)

(* Property-based differential verification: run the [Aging_check] oracle
   suite on random inputs with replayable seeds.  A failing case prints a
   shrunk minimal counterexample plus the exact command that replays it. *)

let check_cmd =
  let module Runner = Aging_check.Runner in
  let module Oracles = Aging_check.Oracles in
  let seed_arg =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Base seed.  Case $(i,i) of a run derives its own seed \
                   from (SEED, i); the run is deterministic for a fixed \
                   seed, and a failure report names the derived case seed \
                   so $(b,--seed <it> --cases 1) replays just that case.")
  in
  let cases_arg =
    Arg.(value & opt int 200
         & info [ "cases" ] ~docv:"N" ~doc:"Random cases per oracle.")
  in
  let only_arg =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"NAMES"
             ~doc:"Run only these comma-separated oracles (see $(b,--list)).")
  in
  let list_arg =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List the oracles and exit.")
  in
  let run tele seed cases jobs only list_only =
    if list_only then
      List.iter
        (fun (o : Oracles.t) -> Printf.printf "%-20s %s\n" o.Oracles.name o.Oracles.doc)
        (Oracles.all ())
    else begin
      let failed = ref 0 in
      with_telemetry ~cmd:"check" tele (fun () ->
          (* Library builds inside the oracles narrate at info level;
             keep the report readable unless the user asked for detail. *)
          if (not tele.verbose) && not tele.quiet then
            Obs.Log.set_level Obs.Log.Warn;
          let oracles =
            match only with
            | None -> Oracles.all ()
            | Some names ->
              String.split_on_char ',' names
              |> List.map String.trim
              |> List.filter (fun n -> n <> "")
              |> List.map (fun n ->
                     match Oracles.find n with
                     | Some o -> o
                     | None -> failwith ("unknown oracle " ^ n ^ " (see --list)"))
          in
          if oracles = [] then failwith "no oracles selected";
          let total_cases = ref 0 in
          List.iter
            (fun (o : Oracles.t) ->
              let outcome = o.Oracles.run ~seed ~cases ~jobs in
              print_endline (Runner.pp_outcome outcome);
              total_cases := !total_cases + outcome.Runner.cases_run;
              let nfail = List.length outcome.Runner.failures in
              if nfail > 0 then incr failed;
              if tele.ledger_dir <> None then begin
                Run_ledger.note_qor
                  ("check." ^ o.Oracles.name ^ ".cases")
                  (float_of_int outcome.Runner.cases_run);
                Run_ledger.note_qor
                  ("check." ^ o.Oracles.name ^ ".failures")
                  (float_of_int nfail)
              end)
            oracles;
          if tele.ledger_dir <> None then begin
            Run_ledger.note "seed" (Obs.Json.String (Int64.to_string seed));
            Run_ledger.note_qor "check.oracles"
              (float_of_int (List.length oracles));
            Run_ledger.note_qor "check.cases" (float_of_int !total_cases);
            Run_ledger.note_qor "check.failed_oracles" (float_of_int !failed)
          end;
          if !failed = 0 then
            Printf.printf "all oracles passed (%d cases, seed %Ld)\n"
              !total_cases seed
          else
            Printf.printf "%d oracle(s) FAILED (seed %Ld)\n" !failed seed);
      if !failed > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Property-based differential verification with replayable seeds")
    Term.(const run $ telemetry_term $ seed_arg $ cases_arg $ jobs_arg
          $ only_arg $ list_arg)

(* ------------------------------- obs ------------------------------- *)

(* Readers over the run ledger: [obs report] (one record as a profile),
   [obs trace] (Chrome trace export) and [obs diff] (regression gate).
   These take their own --ledger (a place to read, default "runs") and do
   not go through [with_telemetry] — inspecting the ledger should never
   append to it. *)

let obs_ledger_arg =
  Arg.(value & opt string "runs"
       & info [ "ledger" ] ~docv:"DIR"
           ~doc:"Ledger directory (reads $(docv)/ledger.jsonl).")

let load_ledger dir =
  match Run_ledger.load ~dir with
  | Ok [] -> failwith (Run_ledger.path ~dir ^ " holds no parseable records")
  | Ok records -> records
  | Error msg -> failwith msg

let select_run records sel =
  match Run_ledger.select records sel with
  | Ok r -> r
  | Error msg -> failwith msg

let run_selector_arg ~at ~default ~doc =
  Arg.(value & pos at string default & info [] ~docv:"RUN" ~doc)

let outcome_string = function
  | Run_ledger.Finished -> "finished"
  | Run_ledger.Failed msg -> "failed: " ^ msg

let utc_string epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d UTC" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Non-zero counters of a stored Metrics.to_json snapshot. *)
let counters_of_metrics = function
  | Obs.Json.Obj fields ->
    List.filter_map
      (fun (name, v) ->
        match
          (Obs.Json.member "type" v, Obs.Json.member "value" v)
        with
        | Some (Obs.Json.String "counter"), Some (Obs.Json.Int n) ->
          Some (name, n)
        | _ -> None)
      fields
  | _ -> []

let counter_value metrics name =
  Option.value ~default:0 (List.assoc_opt name (counters_of_metrics metrics))

let obs_report_cmd =
  let top_arg =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"N"
             ~doc:"Show the N hottest spans by self time (0 = all).")
  in
  let require_arg =
    Arg.(value & opt_all string []
         & info [ "require" ] ~docv:"QOR"
             ~doc:"Fail (exit 1) unless the record carries a QoR row named \
                   $(docv).  Repeatable; used by smoke gates.")
  in
  let run dir sel top required =
    let r = select_run (load_ledger dir) sel in
    List.iter
      (fun name ->
        if not (List.mem_assoc name r.Run_ledger.qor) then
          failwith
            (Printf.sprintf "run %s has no QoR row %S (rows: %s)"
               r.Run_ledger.id name
               (match r.Run_ledger.qor with
               | [] -> "none"
               | q -> String.concat ", " (List.map fst q))))
      required;
    print_string
      (Tablefmt.kv
         [ ("id", r.Run_ledger.id);
           ("command", r.Run_ledger.tool ^ " " ^ r.Run_ledger.subcommand);
           ("argv", String.concat " " r.Run_ledger.argv);
           ("git", Option.value ~default:"-" r.Run_ledger.git_rev);
           ("started", utc_string r.Run_ledger.started_at);
           ("wall", Printf.sprintf "%.3f s" r.Run_ledger.wall_s);
           ("outcome", outcome_string r.Run_ledger.outcome) ]);
    if r.Run_ledger.qor <> [] then begin
      print_string "\nqor:\n";
      print_string
        (Tablefmt.kv
           (List.map
              (fun (name, v) -> (name, Printf.sprintf "%.6g" v))
              r.Run_ledger.qor))
    end;
    let counters =
      List.filter (fun (_, n) -> n <> 0)
        (counters_of_metrics r.Run_ledger.metrics)
    in
    if counters <> [] then begin
      print_string "\ncounters:\n";
      print_string
        (Tablefmt.kv (List.map (fun (n, v) -> (n, string_of_int v)) counters))
    end;
    (match r.Run_ledger.spans with
     | [] -> print_string "\nno spans recorded\n"
     | spans ->
       let percentile name q =
         Option.bind
           (Obs.Json.member ("span." ^ name) r.Run_ledger.metrics)
           (fun entry ->
             Option.map
               (fun buckets -> Obs.Metrics.percentile_of_buckets buckets q)
               (Obs.Metrics.buckets_of_json entry))
       in
       let rows = Obs.Profile.of_spans ~percentile spans in
       print_newline ();
       print_string (Obs.Profile.to_table ~top rows);
       Printf.printf "self-time total %.6f s over %d root span(s) (%.6f s)\n"
         (Obs.Profile.total_self rows)
         (List.length spans)
         (Obs.Profile.total_roots spans);
       if r.Run_ledger.dropped_spans > 0 then
         Printf.printf "(%d spans dropped at record time)\n"
           r.Run_ledger.dropped_spans)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render one ledger record as a profile")
    Term.(const run $ obs_ledger_arg
          $ run_selector_arg ~at:0 ~default:"-1"
              ~doc:"Record selector: integer index (negative counts from \
                    the end, $(b,-1) = newest; place negative indices \
                    after a $(b,--) separator) or a unique id prefix."
          $ top_arg $ require_arg)

let obs_trace_cmd =
  let out_arg =
    Arg.(value & opt string "-"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Output path for the Chrome trace JSON ($(b,-) = stdout). \
                   Load it in Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let require_arg =
    Arg.(value & opt_all string []
         & info [ "require" ] ~docv:"NAME"
             ~doc:"Fail (exit 1) unless some recorded span's name starts \
                   with $(docv) (e.g. $(b,serve.req) asserts request-level \
                   spans).  Repeatable; used by smoke gates.")
  in
  let run dir sel out required =
    let r = select_run (load_ledger dir) sel in
    if r.Run_ledger.spans = [] then
      failwith
        (Printf.sprintf
           "run %s recorded no spans (was it run with --trace or --ledger?)"
           r.Run_ledger.id);
    let rec any_span pred spans =
      List.exists
        (fun s -> pred s || any_span pred s.Obs.Span.children)
        spans
    in
    List.iter
      (fun prefix ->
        if
          not
            (any_span
               (fun s ->
                 String.starts_with ~prefix s.Obs.Span.name)
               r.Run_ledger.spans)
        then
          failwith
            (Printf.sprintf "run %s has no span named %s*" r.Run_ledger.id
               prefix))
      required;
    write_file out
      (Obs.Trace_export.to_string r.Run_ledger.spans ^ "\n");
    if out <> "-" then
      Printf.printf "wrote %s: %d root span(s) from run %s\n" out
        (List.length r.Run_ledger.spans)
        r.Run_ledger.id
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Export one ledger record's spans as a Chrome trace")
    Term.(const run $ obs_ledger_arg
          $ run_selector_arg ~at:0 ~default:"-1"
              ~doc:"Record selector (as in $(b,obs report))."
          $ out_arg $ require_arg)

(* Diff semantics: QoR rows gate at a relative tolerance (default 1%, per
   row overridable); the health counters gate one-sidedly on any increase
   (retries/repairs/corruption appearing where there were none is the
   regression, their disappearance is not); wall time is informational
   unless given an explicit tolerance — a cache-served rerun is legitimately
   ~100x faster than a cold build and must not trip the gate. *)
let health_counters =
  [ "characterize.points.retried"; "characterize.points.repaired";
    "characterize.points.failed"; "cache.corrupt" ]

let obs_diff_cmd =
  let tol_arg =
    Arg.(value & opt_all string []
         & info [ "tol" ] ~docv:"PCT|NAME=PCT"
             ~doc:"Relative tolerance in percent: a bare number replaces \
                   the 1% default for all QoR rows, $(i,NAME=PCT) sets one \
                   row (e.g. $(b,--tol wall_s=50) gates wall time). \
                   Repeatable.")
  in
  let parse_tols specs =
    List.fold_left
      (fun (dflt, named) spec ->
        let pct_of s =
          match float_of_string_opt (String.trim s) with
          | Some p when p >= 0. -> p
          | _ -> failwith ("--tol: bad percentage in " ^ spec)
        in
        match String.index_opt spec '=' with
        | Some i ->
          let name = String.trim (String.sub spec 0 i) in
          let pct =
            pct_of (String.sub spec (i + 1) (String.length spec - i - 1))
          in
          (dflt, (name, pct) :: named)
        | None -> (pct_of spec, named))
      (1., []) specs
  in
  let allow_missing_arg =
    Arg.(value & flag
         & info [ "allow-missing-baseline" ]
             ~doc:"Exit 0 with a note when the baseline record does not \
                   exist yet (e.g. the very first run of a freshly created \
                   ledger) instead of failing.  The candidate must still \
                   resolve.")
  in
  let run dir sel_a sel_b tols allow_missing =
    let default_tol, named_tols = parse_tols tols in
    let baseline =
      (* With --allow-missing-baseline, an unresolvable baseline — ledger
         unreadable or the selector out of range — means "nothing to diff
         against yet", not an error. *)
      match Run_ledger.load ~dir with
      | Ok (_ :: _ as records) -> (
        match Run_ledger.select records sel_a with
        | Ok a -> Ok (records, a)
        | Error msg -> Error msg)
      | Ok [] -> Error (Run_ledger.path ~dir ^ " holds no parseable records")
      | Error msg -> Error msg
    in
    match baseline with
    | Error msg when allow_missing ->
      Printf.printf "no baseline record (%s); nothing to diff yet\n" msg
    | Error msg -> failwith msg
    | Ok (records, a) ->
    let b = select_run records sel_b in
    Printf.printf "A %s  %s %s  %s\nB %s  %s %s  %s\n\n" a.Run_ledger.id
      a.Run_ledger.tool a.Run_ledger.subcommand
      (utc_string a.Run_ledger.started_at)
      b.Run_ledger.id b.Run_ledger.tool b.Run_ledger.subcommand
      (utc_string b.Run_ledger.started_at);
    let tol_for name ~fallback =
      match List.assoc_opt name named_tols with
      | Some t -> t
      | None -> fallback
    in
    (* One row per comparison; [gate] decides breach from the two values. *)
    let breached = ref [] in
    let fmt_v = function
      | None -> "-"
      | Some v -> Printf.sprintf "%.6g" v
    in
    let qor_names =
      List.map fst a.Run_ledger.qor
      @ List.filter
          (fun n -> not (List.mem_assoc n a.Run_ledger.qor))
          (List.map fst b.Run_ledger.qor)
    in
    let relative_row name va vb tol =
      let delta, status =
        match (va, vb) with
        | Some va, Some vb
          when Float.is_finite va && Float.is_finite vb ->
          let delta =
            if va <> 0. then Some ((vb -. va) /. Float.abs va *. 100.)
            else None
          in
          let breach =
            Float.is_finite tol
            && (match delta with
                | Some d -> Float.abs d > tol
                | None -> vb <> 0.)  (* A = 0: any move off zero gates *)
          in
          (delta, if breach then `Breach else if Float.is_finite tol then `Ok else `Info)
        | _ -> (None, `Info)  (* one-sided or non-finite: informational *)
      in
      (name, va, vb, delta, Printf.sprintf "%g%%" tol, status)
    in
    let counter_row name =
      let va = counter_value a.Run_ledger.metrics name in
      let vb = counter_value b.Run_ledger.metrics name in
      let delta =
        if va <> 0 then Some (float_of_int (vb - va) /. float_of_int va *. 100.)
        else None
      in
      ( name, Some (float_of_int va), Some (float_of_int vb), delta,
        "B<=A", if vb > va then `Breach else `Ok )
    in
    let rows =
      relative_row "wall_s" (Some a.Run_ledger.wall_s)
        (Some b.Run_ledger.wall_s)
        (tol_for "wall_s" ~fallback:infinity)
      :: List.map
           (fun name ->
             relative_row name
               (List.assoc_opt name a.Run_ledger.qor)
               (List.assoc_opt name b.Run_ledger.qor)
               (tol_for name ~fallback:default_tol))
           qor_names
      @ List.map counter_row health_counters
    in
    let body =
      List.map
        (fun (name, va, vb, delta, tol, status) ->
          (match status with
           | `Breach -> breached := name :: !breached
           | `Ok | `Info -> ());
          [ name; fmt_v va; fmt_v vb;
            (match delta with
             | Some d -> Printf.sprintf "%+.2f%%" d
             | None -> "-");
            tol;
            (match status with
             | `Breach -> "BREACH"
             | `Ok -> "ok"
             | `Info -> "info") ])
        rows
    in
    Tablefmt.print ~align:[ Tablefmt.Left ]
      ~header:[ "metric"; "A"; "B"; "delta"; "tol"; "status" ]
      body;
    match List.rev !breached with
    | [] -> print_string "\nno regressions\n"
    | names ->
      Printf.printf "\nregression: %s\n" (String.concat ", " names);
      exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two ledger records and gate on regressions")
    Term.(const run $ obs_ledger_arg
          $ run_selector_arg ~at:0 ~default:"-2"
              ~doc:"Baseline record (default $(b,-2), the second newest)."
          $ run_selector_arg ~at:1 ~default:"-1"
              ~doc:"Candidate record (default $(b,-1), the newest)."
          $ tol_arg $ allow_missing_arg)

(* Pretty-print a flight-recorder dump (JSONL from `relaware serve
   --flight-dump` + SIGQUIT, or a dump_flight query).  Timestamps render
   relative to the first surviving event — the absolute monotonic origin
   is process-local and meaningless to a reader. *)
let obs_flight_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Flight-recorder JSONL dump.")
  in
  let require_arg =
    Arg.(value & opt_all string []
         & info [ "require" ] ~docv:"KIND"
             ~doc:"Fail (exit 1) unless an event of kind $(docv) (e.g. \
                   $(b,worker.death)) is present.  Repeatable; used by \
                   smoke gates.")
  in
  let run file required =
    match Obs.Flightrec.load_jsonl file with
    | Error msg -> failwith (file ^ ": " ^ msg)
    | Ok [] -> failwith (file ^ ": empty flight dump")
    | Ok events ->
      let t0 =
        match events with e :: _ -> e.Obs.Flightrec.t_mono | [] -> 0.
      in
      let field_str (k, v) = k ^ "=" ^ Obs.Json.to_string v in
      Tablefmt.print
        ~align:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Left; Tablefmt.Left ]
        ~header:[ "seq"; "t+ms"; "kind"; "fields" ]
        (List.map
           (fun e ->
             [ string_of_int e.Obs.Flightrec.seq;
               Printf.sprintf "%.2f"
                 ((e.Obs.Flightrec.t_mono -. t0) *. 1e3);
               e.Obs.Flightrec.kind;
               String.concat " "
                 (List.map field_str e.Obs.Flightrec.fields) ])
           events);
      let kinds =
        List.sort_uniq compare
          (List.map (fun e -> e.Obs.Flightrec.kind) events)
      in
      Printf.printf "\n%d event(s), kinds: %s\n" (List.length events)
        (String.concat ", " kinds);
      List.iter
        (fun kind ->
          if not (List.mem kind kinds) then
            failwith
              (Printf.sprintf "%s: no event of kind %S" file kind))
        required
  in
  Cmd.v
    (Cmd.info "flight" ~doc:"Pretty-print a flight-recorder dump")
    Term.(const run $ file_arg $ require_arg)

(* Export one record's stored metrics snapshot in a machine-readable
   format — OpenMetrics text so archived runs can be pushed at anything
   that speaks Prometheus, or the raw stored JSON. *)
let obs_export_cmd =
  let format_arg =
    Arg.(value & opt (enum [ ("openmetrics", `Openmetrics); ("json", `Json) ])
           `Openmetrics
         & info [ "format" ] ~docv:"FMT"
             ~doc:"openmetrics (Prometheus text exposition) or json (the \
                   stored snapshot verbatim).")
  in
  let out_arg =
    Arg.(value & opt string "-"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Output path ($(b,-) = stdout).")
  in
  let run dir sel format out =
    let r = select_run (load_ledger dir) sel in
    let text =
      match format with
      | `Json -> Obs.Json.to_string ~pretty:true r.Run_ledger.metrics ^ "\n"
      | `Openmetrics -> begin
        match Obs.Openmetrics.render_stored r.Run_ledger.metrics with
        | Ok text -> text
        | Error msg ->
          failwith
            (Printf.sprintf "run %s: metrics snapshot unreadable: %s"
               r.Run_ledger.id msg)
      end
    in
    write_file out text;
    if out <> "-" then
      Printf.printf "wrote %s from run %s\n" out r.Run_ledger.id
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export one ledger record's metrics snapshot (OpenMetrics or \
             JSON)")
    Term.(const run $ obs_ledger_arg
          $ run_selector_arg ~at:0 ~default:"-1"
              ~doc:"Record selector (as in $(b,obs report))."
          $ format_arg $ out_arg)

(* Time-series view over the last N records: sparkline per metric, robust
   drift score of the newest value against the trailing window.  [--gate]
   turns the Drift verdicts into exit 1 — the multi-run complement of the
   pairwise [obs diff]. *)
let obs_history_cmd =
  let last_arg =
    Arg.(value & opt int 20
         & info [ "last" ] ~docv:"N"
             ~doc:"Consider only the newest $(docv) records (0 = all).")
  in
  let metric_arg =
    Arg.(value & opt_all string []
         & info [ "metric" ] ~docv:"NAME"
             ~doc:"Show only this metric (repeatable; default: every QoR \
                   row plus the standard health counters).")
  in
  let cmd_arg =
    Arg.(value & opt (some string) None
         & info [ "cmd" ] ~docv:"SUB"
             ~doc:"Consider only records of this subcommand (e.g. \
                   $(b,soak)), so series are not polluted by unrelated \
                   runs sharing the ledger.")
  in
  let gate_arg =
    Arg.(value & flag
         & info [ "gate" ]
             ~doc:"Exit 1 naming every drifting metric.  Rows whose \
                   trailing window is shorter than $(b,--min-window) are \
                   informational and never gate.")
  in
  let z_arg =
    Arg.(value & opt float 4.
         & info [ "z" ] ~docv:"Z"
             ~doc:"Robust z-score threshold (deviation from the trailing \
                   window's median in MAD-sigmas).")
  in
  let min_window_arg =
    Arg.(value & opt int 4
         & info [ "min-window" ] ~docv:"N"
             ~doc:"Minimum trailing-window size for a verdict.")
  in
  let run dir last metrics cmd gate z min_window =
    let records = load_ledger dir in
    let records =
      match cmd with
      | None -> records
      | Some sub ->
        List.filter (fun r -> r.Run_ledger.subcommand = sub) records
    in
    let records =
      if last <= 0 then records
      else begin
        let n = List.length records in
        if n <= last then records
        else List.filteri (fun i _ -> i >= n - last) records
      end
    in
    if records = [] then failwith "obs history: no records selected";
    let rows = Obs.History.rows_of_records records in
    let rows =
      match metrics with
      | [] -> rows
      | wanted ->
        List.iter
          (fun name ->
            if not (List.exists (fun r -> r.Obs.History.r_name = name) rows)
            then
              failwith
                (Printf.sprintf "obs history: no series named %S" name))
          wanted;
        List.filter (fun r -> List.mem r.Obs.History.r_name wanted) rows
    in
    if rows = [] then failwith "obs history: selected records carry no series";
    let gated =
      List.map (Obs.History.gate ~z_thresh:z ~min_window) rows
    in
    let fmt_f v = if Float.is_nan v then "-" else Printf.sprintf "%.6g" v in
    Tablefmt.print
      ~align:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Left ]
      ~header:[ "metric"; "n"; "trend"; "median"; "last"; "z"; "status" ]
      (List.map
         (fun (g : Obs.History.gated) ->
           let row = g.Obs.History.g_row in
           [ row.Obs.History.r_name;
             string_of_int (Array.length row.Obs.History.r_values);
             Obs.History.sparkline row.Obs.History.r_values;
             fmt_f g.Obs.History.g_median;
             fmt_f g.Obs.History.g_last;
             (if Float.is_nan g.Obs.History.g_z then "-"
              else Printf.sprintf "%.2f" g.Obs.History.g_z);
             (match g.Obs.History.g_status with
             | Obs.History.Pass -> "ok"
             | Obs.History.Drift -> "DRIFT"
             | Obs.History.Short -> "short") ])
         gated);
    Printf.printf "\n%d record(s), window = all but newest, z threshold %g\n"
      (List.length records) z;
    let drifting =
      List.filter_map
        (fun (g : Obs.History.gated) ->
          match g.Obs.History.g_status with
          | Obs.History.Drift -> Some g.Obs.History.g_row.Obs.History.r_name
          | Obs.History.Pass | Obs.History.Short -> None)
        gated
    in
    match drifting with
    | [] -> if gate then print_string "no drift\n"
    | names ->
      Printf.printf "drift: %s\n" (String.concat ", " names);
      if gate then exit 1
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Per-metric trends over the last N ledger records, with \
             sparklines and a robust drift gate")
    Term.(const run $ obs_ledger_arg $ last_arg $ metric_arg $ cmd_arg
          $ gate_arg $ z_arg $ min_window_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Inspect run-ledger records: report, trace export, regression \
             diff, flight-recorder dumps, metric export, drift history")
    [ obs_report_cmd; obs_trace_cmd; obs_diff_cmd; obs_flight_cmd;
      obs_export_cmd; obs_history_cmd ]

(* ------------------------ serve / query / soak ------------------------ *)

module Serve = Aging_serve

let socket_arg =
  Arg.(value & opt string "relaware.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket path (limit ~100 chars).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Use loopback TCP port $(docv) instead of the unix socket.")

let addr_of socket port : Serve.Client.addr =
  match port with Some p -> `Tcp p | None -> `Unix socket

let chaos_term =
  let kill =
    Arg.(value & opt float 0.
         & info [ "chaos-kill" ] ~docv:"RATE"
             ~doc:"Fraction of requests that kill their worker domain \
                   (supervisor restart test).")
  in
  let crash =
    Arg.(value & opt float 0.
         & info [ "chaos-crash" ] ~docv:"RATE"
             ~doc:"Fraction of requests whose handler raises (typed \
                   $(b,internal) isolation test).")
  in
  let slow =
    Arg.(value & opt float 0.
         & info [ "chaos-slow" ] ~docv:"RATE"
             ~doc:"Fraction of requests stalled before execution \
                   (deadline and backpressure test).")
  in
  let slow_s =
    Arg.(value & opt float 0.1
         & info [ "chaos-slow-s" ] ~docv:"S" ~doc:"Stall length in seconds.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "chaos-seed" ] ~docv:"N"
             ~doc:"Chaos decision seed: a fixed seed sabotages the same \
                   request ids.")
  in
  Term.(const (fun kill_rate crash_rate slow_rate slow_s seed ->
            Serve.Chaos.validated
              { Serve.Chaos.kill_rate; crash_rate; slow_rate; slow_s; seed })
        $ kill $ crash $ slow $ slow_s $ seed)

let workers_arg =
  Arg.(value & opt int 2
       & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (>= 1).")

let queue_cap_arg =
  Arg.(value & opt int 64
       & info [ "queue-cap" ] ~docv:"N"
           ~doc:"Bounded request queue; a full queue sheds with a typed \
                 $(b,overloaded) refusal.")

let deadline_opt_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"S"
           ~doc:"Default per-request deadline in seconds (requests may \
                 override); expired requests get a typed $(b,timeout).")

let drain_arg =
  Arg.(value & opt float 5.
       & info [ "drain-timeout" ] ~docv:"S"
           ~doc:"On SIGTERM/SIGINT: finish in-flight work for up to \
                 $(docv) seconds before stopping.")

let slow_ms_arg =
  Arg.(value & opt (some float) None
       & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Warn-log requests slower than $(docv) ms end to end, with \
                 trace id and queue/exec phase breakdown (default: off).")

let flight_dump_arg =
  Arg.(value & opt (some string) None
       & info [ "flight-dump" ] ~docv:"FILE"
           ~doc:"Dump the flight recorder (ring buffer of request/worker/\
                 chaos events) to $(docv) as JSONL on SIGQUIT and on crash. \
                 Inspect with $(b,relaware obs flight).")

let flight_cap_arg =
  Arg.(value & opt (some int) None
       & info [ "flight-cap" ] ~docv:"N"
           ~doc:"Resize the flight-recorder ring to hold $(docv) events \
                 (default 4096, or $(b,AGING_FLIGHT_CAP)).  A small cap \
                 keeps only the newest events — cheap always-on forensics.")

let apply_flight_cap cap =
  Option.iter
    (fun n ->
      if n <= 0 then failwith "--flight-cap must be positive";
      Obs.Flightrec.set_capacity Obs.Flightrec.global n)
    cap

let metrics_port_arg =
  Arg.(value & opt (some int) None
       & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve the OpenMetrics exposition on \
                 http://127.0.0.1:$(docv)/metrics (plus /health); \
                 $(b,0) picks an ephemeral port (logged at startup).")

let stall_after_arg =
  Arg.(value & opt (some float) (Some 5.)
       & info [ "stall-after" ] ~docv:"S"
           ~doc:"Watchdog budget: flag a worker stalled when one job \
                 executes longer than $(docv) seconds (flight event, \
                 $(b,serve.worker.stalled) counter, $(b,health) verdict). \
                 Negative disables the watchdog.")

let rss_limit_arg =
  Arg.(value & opt (some float) None
       & info [ "rss-limit-mb" ] ~docv:"MB"
           ~doc:"Report $(b,unhealthy) when resident set size exceeds \
                 $(docv) MB.")

let server_config_of ~socket ~port ~workers ~queue_cap ~deadline ~drain ~chaos
    ~slow_ms ~metrics_port ~stall_after ~rss_limit =
  let stall_after_s =
    match stall_after with Some s when s <= 0. -> None | s -> s
  in
  {
    Serve.Server.addr = (addr_of socket port :> [ `Unix of string | `Tcp of int ]);
    workers;
    queue_cap;
    default_deadline_s = deadline;
    drain_timeout_s = drain;
    max_frame = Serve.Frame.default_max_frame;
    chaos;
    slow_ms;
    metrics_port;
    stall_after_s;
    rss_limit_mb = rss_limit;
  }

let note_serve_qor () =
  List.iter
    (fun name ->
      Option.iter (Run_ledger.note_qor name) (Obs.Metrics.value_by_name name))
    [ "serve.requests"; "serve.replies_ok"; "serve.refused_overloaded";
      "serve.refused_timeout"; "serve.worker_restarts"; "serve.bad_frames" ]

let serve_cmd =
  let run tele socket port workers queue_cap deadline drain chaos slow_ms
      flight_dump flight_cap metrics_port stall_after rss_limit axes years
      cache jobs cells =
    with_telemetry ~cmd:"serve" tele @@ fun () ->
    apply_flight_cap flight_cap;
    Obs.Runtime.start_global ();
    let go () =
      let queries =
        Serve.Queries.create ~axes ~years ~cache_dir:cache ~jobs
          ?cells:(cells_of cells) ()
      in
      let cfg =
        server_config_of ~socket ~port ~workers ~queue_cap ~deadline ~drain
          ~chaos ~slow_ms ~metrics_port ~stall_after ~rss_limit
      in
      let server =
        Serve.Server.start ~handler:(Serve.Queries.handle queries) cfg
      in
      Option.iter
        (fun p ->
          Obs.Log.infof "serve" "metrics on http://127.0.0.1:%d/metrics" p)
        (Serve.Server.metrics_port server);
      Serve.Server.install_signal_handlers ?flight_dump server;
      Serve.Server.await server;
      note_serve_qor ()
    in
    match go () with
    | () -> ()
    | exception e ->
      (* Post-mortem: the ring survives to the dump even when serve dies. *)
      Option.iter Serve.Server.dump_flight_to flight_dump;
      raise e
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident aging-analysis daemon (drains gracefully on \
             SIGTERM/SIGINT; SIGQUIT dumps the flight recorder)")
    Term.(const run $ telemetry_term $ socket_arg $ port_arg $ workers_arg
          $ queue_cap_arg $ deadline_opt_arg $ drain_arg $ chaos_term
          $ slow_ms_arg $ flight_dump_arg $ flight_cap_arg $ metrics_port_arg
          $ stall_after_arg $ rss_limit_arg
          $ axes_arg $ years_arg $ cache_arg $ jobs_arg $ cells_arg)

let query_cmd =
  let op_arg =
    let ops =
      [ ("ping", `Ping); ("stats", `Stats); ("health", `Health);
        ("shutdown", `Shutdown); ("flight", `Flight);
        ("guardband", `Guardband); ("delay", `Delay); ("sleep", `Sleep) ]
    in
    Arg.(required & pos 0 (some (enum ops)) None
         & info [] ~docv:"OP"
             ~doc:"One of ping, stats, health (watchdog/saturation/RSS \
                   verdict with machine-readable reasons), shutdown, \
                   flight (on-demand flight-recorder dump), guardband, \
                   delay, sleep.")
  in
  let design_opt =
    let all = [ "DSP"; "FFT"; "RISC-6P"; "RISC-5P"; "VLIW"; "DCT"; "IDCT" ] in
    Arg.(value & opt (some (enum (List.map (fun d -> (d, d)) all))) None
         & info [ "design" ] ~docv:"NAME" ~doc:"Design for $(b,guardband).")
  in
  let cell_opt =
    Arg.(value & opt (some string) None
         & info [ "cell" ] ~docv:"NAME" ~doc:"Catalog cell for $(b,delay).")
  in
  let slew_opt =
    Arg.(value & opt (some float) None
         & info [ "slew" ] ~docv:"S" ~doc:"Input slew for $(b,delay).")
  in
  let load_opt =
    Arg.(value & opt (some float) None
         & info [ "load" ] ~docv:"F" ~doc:"Output load for $(b,delay).")
  in
  let seconds_arg =
    Arg.(value & opt float 0.1
         & info [ "seconds" ] ~docv:"S" ~doc:"Length of a $(b,sleep) request.")
  in
  let attempts_arg =
    Arg.(value & opt int Aging_util.Retry.default_backoff.Aging_util.Retry.max_attempts
         & info [ "attempts" ] ~docv:"N"
             ~doc:"Retry budget: capped exponential backoff over at most \
                   $(docv) attempts.")
  in
  let budget_arg =
    Arg.(value & opt float Aging_util.Retry.default_backoff.Aging_util.Retry.budget
         & info [ "budget" ] ~docv:"S"
             ~doc:"Total retry deadline across all attempts and sleeps.")
  in
  let seed_arg =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"N"
             ~doc:"Backoff jitter seed; a fixed seed gives a bit-identical \
                   retry schedule.")
  in
  let run tele socket port op design cell slew load seconds corner deadline
      attempts budget seed =
    with_telemetry ~cmd:"query" tele @@ fun () ->
    let req =
      match op with
      | `Ping -> Serve.Protocol.Ping
      | `Stats -> Serve.Protocol.Stats
      | `Health -> Serve.Protocol.Health
      | `Shutdown -> Serve.Protocol.Shutdown
      | `Flight -> Serve.Protocol.Dump_flight
      | `Sleep -> Serve.Protocol.Sleep seconds
      | `Guardband -> begin
        match design with
        | Some design -> Serve.Protocol.Guardband { design; corner }
        | None -> failwith "query guardband: --design is required"
      end
      | `Delay -> begin
        match cell with
        | Some cell -> Serve.Protocol.Delay { cell; corner; slew; load }
        | None -> failwith "query delay: --cell is required"
      end
    in
    let backoff =
      { Aging_util.Retry.default_backoff with max_attempts = attempts; budget }
    in
    let rng = Aging_util.Rng.create (Int64.of_int seed) in
    let outcome =
      Serve.Client.request ~backoff ~rng ?deadline_s:deadline
        (addr_of socket port) req
    in
    (match Aging_util.Retry.errors outcome with
    | [] -> ()
    | errors ->
      List.iter
        (fun e ->
          Obs.Log.warnf "query" "attempt failed: %s"
            (Serve.Client.error_to_string e))
        errors);
    match Aging_util.Retry.succeeded outcome with
    | Some data ->
      print_endline (Obs.Json.to_string ~pretty:true data);
      Run_ledger.note_qor "query.attempts"
        (float_of_int (Aging_util.Retry.attempts outcome))
    | None -> failwith "query failed: retry budget exhausted"
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running daemon (capped exponential backoff with \
             seeded jitter)")
    Term.(const run $ telemetry_term $ socket_arg $ port_arg $ op_arg
          $ design_opt $ cell_opt $ slew_opt $ load_opt $ seconds_arg
          $ corner_arg $ deadline_opt_arg $ attempts_arg $ budget_arg
          $ seed_arg)

(* The soak forks the daemon into a child process before this process
   spawns any domain or thread, so the parent is a pure client fleet and
   the child's SIGTERM drain is exercised across a real process
   boundary. *)
let soak_cmd =
  let clients_arg =
    Arg.(value & opt int 8
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let duration_arg =
    Arg.(value & opt float 2.
         & info [ "duration" ] ~docv:"S" ~doc:"Soak length in seconds.")
  in
  let soak_deadline_arg =
    Arg.(value & opt float 0.25
         & info [ "request-deadline" ] ~docv:"S"
             ~doc:"Per-request deadline during the soak.")
  in
  let soak_seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Workload and jitter seed.")
  in
  let corrupt_arg =
    Arg.(value & opt float 0.05
         & info [ "corrupt-rate" ] ~docv:"RATE"
             ~doc:"Fraction of iterations sending a deliberately corrupt \
                   frame.")
  in
  let heavy_arg =
    Arg.(value & opt float 0.15
         & info [ "heavy-rate" ] ~docv:"RATE"
             ~doc:"Fraction of iterations issuing a worker-occupying sleep.")
  in
  let attach_arg =
    Arg.(value & flag
         & info [ "attach" ]
             ~doc:"Soak an already-running daemon at --socket/--port \
                   instead of forking one.")
  in
  let server_obs_arg =
    Arg.(value & opt (some string) None
         & info [ "server-obs" ] ~docv:"DIR"
             ~doc:"Record the forked daemon's own telemetry: span recording \
                   on (per-request phase spans) and a $(b,serve) ledger \
                   record appended to $(docv) when the daemon drains.  \
                   Export with $(b,relaware obs trace).")
  in
  let expect_stall_arg =
    Arg.(value & flag
         & info [ "expect-stall" ]
             ~doc:"Fail unless the post-storm $(b,health) verdict proves \
                   the watchdog flagged at least one stalled worker \
                   (cumulative $(b,serve.worker.stalled) > 0).  Used by \
                   the health smoke gate with heavy $(b,--chaos-slow).")
  in
  let run tele socket port attach clients duration deadline seed corrupt
      heavy workers queue_cap drain chaos slow_ms flight_dump flight_cap
      metrics_port stall_after expect_stall server_obs =
    with_telemetry ~cmd:"soak" tele @@ fun () ->
    apply_flight_cap flight_cap;
    (match metrics_port with
    | Some 0 ->
      failwith
        "soak: --metrics-port 0 (ephemeral) is not scrapeable from the \
         parent; pass a concrete port"
    | _ -> ());
    Obs.Runtime.start_global ();
    let addr, child =
      if attach then (addr_of socket port, None)
      else begin
        let path =
          Printf.sprintf "%s/relaware-soak-%d.sock"
            (Filename.get_temp_dir_name ()) (Unix.getpid ())
        in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          (* Child: the daemon.  Exit without returning into cmdliner so
             the parent's telemetry dump is not duplicated. *)
          let code =
            try
              if server_obs <> None then Obs.Span.set_recording true;
              Obs.Runtime.start_global ();
              let started_at = Unix.gettimeofday () in
              let m0 = Obs.Span.elapsed () in
              let queries =
                Serve.Queries.create ~axes:Axes.coarse
                  ~cells:[ Aging_cells.Catalog.find_exn "INV_X1" ] ()
              in
              let cfg =
                server_config_of ~socket:path ~port:None ~workers ~queue_cap
                  ~deadline:None ~drain ~chaos ~slow_ms ~metrics_port
                  ~stall_after ~rss_limit:None
              in
              let server =
                Serve.Server.start ~handler:(Serve.Queries.handle queries) cfg
              in
              Serve.Server.install_signal_handlers ?flight_dump server;
              Serve.Server.await server;
              (* The daemon's own run record: serve.* QoR counters plus the
                 per-request spans, appended from inside the child so the
                 storm's server-side story survives the process. *)
              Option.iter
                (fun dir ->
                  note_serve_qor ();
                  let record =
                    Run_ledger.capture ~tool:"relaware" ~subcommand:"serve"
                      ~outcome:Run_ledger.Finished ~started_at
                      ~wall_s:(Obs.Span.elapsed () -. m0) ()
                  in
                  ignore (Run_ledger.append ~dir record))
                server_obs;
              0
            with e ->
              Printf.eprintf "soak daemon died: %s\n%!" (Printexc.to_string e);
              1
          in
          Stdlib.exit code
        | pid -> ((`Unix path : Serve.Client.addr), Some pid)
      end
    in
    (* Wait for the daemon to answer before unleashing the fleet. *)
    let rec wait_ready tries =
      if tries = 0 then failwith "soak: daemon did not come up"
      else
        match Serve.Client.connect addr with
        | Ok conn ->
          let alive =
            Serve.Client.call ~deadline_s:1. conn Serve.Protocol.Ping
          in
          Serve.Client.close conn;
          if Result.is_error alive then begin
            Unix.sleepf 0.05;
            wait_ready (tries - 1)
          end
        | Error _ ->
          Unix.sleepf 0.05;
          wait_ready (tries - 1)
    in
    wait_ready 100;
    let cfg =
      {
        (Serve.Soak.default ~addr) with
        clients;
        duration_s = duration;
        deadline_s = deadline;
        seed;
        corrupt_rate = corrupt;
        heavy_rate = heavy;
      }
    in
    let report = Serve.Soak.run cfg in
    print_endline (Serve.Soak.report_to_string report);
    Run_ledger.note_qor "soak.qps" report.Serve.Soak.qps;
    Run_ledger.note_qor "soak.ok" (float_of_int report.Serve.Soak.ok);
    Run_ledger.note_qor "soak.attempts"
      (float_of_int report.Serve.Soak.attempts);
    Run_ledger.note_qor "soak.exhausted"
      (float_of_int report.Serve.Soak.exhausted);
    (* Latency QoR rides the same ledger record as qps, so `obs diff`
       gates both throughput and tail latency. *)
    Option.iter (Run_ledger.note_qor "soak.p50_ms") report.Serve.Soak.lat_p50_ms;
    Option.iter (Run_ledger.note_qor "soak.p95_ms") report.Serve.Soak.lat_p95_ms;
    Run_ledger.note "soak.server_alive"
      (Obs.Json.Bool report.Serve.Soak.server_alive);
    (* The server's own runtime story and the health verdict ride the same
       record.  Peak RSS is gated; the daemon's GC readings are notes only:
       they depend on when the collector happens to run (the major count
       is often 0, so any move breaches a relative tolerance). *)
    Option.iter (Run_ledger.note_qor "soak.srv_hwm_mb")
      report.Serve.Soak.srv_hwm_mb;
    List.iter
      (fun (name, v) ->
        Option.iter (fun v -> Run_ledger.note name (Obs.Json.Float v)) v)
      [
        ("soak.srv_minor_words", report.Serve.Soak.srv_minor_words);
        ("soak.srv_major_collections", report.Serve.Soak.srv_major_collections);
      ];
    Option.iter
      (fun (h : Serve.Dash.health) ->
        Run_ledger.note "soak.health_status" (Obs.Json.String h.Serve.Dash.status);
        Run_ledger.note_qor "soak.stalled_total"
          (float_of_int h.Serve.Dash.stalled_total))
      report.Serve.Soak.health;
    (* Live scrape validation: while the daemon still runs, GET /metrics
       and parse the exposition — names legal, buckets cumulative — then
       require the serve counters to actually be there. *)
    Option.iter
      (fun p ->
        match Serve.Metrics_http.fetch ~port:p ~path:"/metrics" with
        | Error msg -> failwith ("soak: /metrics scrape failed: " ^ msg)
        | Ok body ->
          match Obs.Openmetrics.parse body with
          | Error msg -> failwith ("soak: scrape did not parse: " ^ msg)
          | Ok samples ->
            if Obs.Openmetrics.find samples "serve_requests_total" = None
            then failwith "soak: scrape lacks serve_requests_total";
            Printf.printf "scraped /metrics: %d samples, exposition valid\n"
              (List.length samples);
            Run_ledger.note_qor "soak.scrape_samples"
              (float_of_int (List.length samples)))
      metrics_port;
    if expect_stall then begin
      let stalls =
        match report.Serve.Soak.health with
        | Some h -> h.Serve.Dash.stalled_total
        | None -> 0
      in
      if stalls = 0 then
        failwith
          "soak: --expect-stall, but health reports no stalled worker \
           (serve.worker.stalled = 0)"
      else Printf.printf "watchdog saw %d stall(s), as expected\n" stalls
    end;
    (* Post-storm forensics: SIGQUIT makes the (still running) child dump
       its flight recorder; wait for the file so the drain below cannot
       race the write. *)
    (match (child, flight_dump) with
    | Some pid, Some file ->
      Unix.kill pid Sys.sigquit;
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait_dump () =
        if Sys.file_exists file then ()
        else if Unix.gettimeofday () > deadline then
          Obs.Log.warnf "soak" "daemon never wrote flight dump %s" file
        else begin
          Unix.sleepf 0.02;
          wait_dump ()
        end
      in
      wait_dump ()
    | _ -> ());
    let child_clean =
      match child with
      | None -> true
      | Some pid ->
        (* SIGTERM must drain the child gracefully: exit 0, promptly. *)
        Unix.kill pid Sys.sigterm;
        let deadline = Unix.gettimeofday () +. 20. in
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              Obs.Log.warnf "soak" "daemon ignored SIGTERM; killing";
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              false
            end
            else begin
              Unix.sleepf 0.02;
              reap ()
            end
          | _, Unix.WEXITED 0 -> true
          | _, Unix.WEXITED c ->
            Obs.Log.warnf "soak" "daemon exited %d" c;
            false
          | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
            Obs.Log.warnf "soak" "daemon killed by signal";
            false
        in
        reap ()
    in
    Run_ledger.note "soak.child_clean" (Obs.Json.Bool child_clean);
    if not report.Serve.Soak.server_alive then
      failwith "soak: server unresponsive after the storm";
    if report.Serve.Soak.ok = 0 then
      failwith "soak: no request ever succeeded";
    if not child_clean then failwith "soak: daemon did not drain cleanly"
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Chaos soak: fork a daemon, hammer it with concurrent clients \
             and injected faults, verify graceful degradation and drain")
    Term.(const run $ telemetry_term $ socket_arg $ port_arg $ attach_arg
          $ clients_arg $ duration_arg $ soak_deadline_arg $ soak_seed_arg
          $ corrupt_arg $ heavy_arg $ workers_arg $ queue_cap_arg $ drain_arg
          $ chaos_term $ slow_ms_arg $ flight_dump_arg $ flight_cap_arg
          $ metrics_port_arg $ stall_after_arg $ expect_stall_arg
          $ server_obs_arg)

(* A reader, not a run: no telemetry wrapper, no ledger record — watching
   a daemon should leave no artifacts of its own. *)
let top_cmd =
  let interval_arg =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"S" ~doc:"Seconds between polls.")
  in
  let count_arg =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"Render $(docv) snapshots then exit (0 = until \
                   interrupted).  $(b,--count 1) is the scripting mode: one \
                   plain snapshot, no screen clearing.")
  in
  let no_clear_arg =
    Arg.(value & flag
         & info [ "no-clear" ]
             ~doc:"Do not clear the terminal between refreshes.")
  in
  let run socket port interval count no_clear =
    let addr = addr_of socket port in
    let fetch () =
      match Serve.Client.connect addr with
      | Error e -> Error (Serve.Client.error_to_string e)
      | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close conn)
          (fun () ->
            match
              Serve.Client.call ~deadline_s:2. conn Serve.Protocol.Stats
            with
            | Error e -> Error (Serve.Client.error_to_string e)
            | Ok stats ->
              (* Health is best-effort: an older daemon that predates the
                 op still renders the rest of the dashboard. *)
              let health =
                match
                  Serve.Client.call ~deadline_s:2. conn Serve.Protocol.Health
                with
                | Ok h -> Result.to_option (Serve.Dash.of_health_json h)
                | Error _ -> None
              in
              Result.map
                (fun snap -> (snap, health))
                (Serve.Dash.of_stats_json stats))
    in
    let clear = not (no_clear || count = 1) in
    let rec loop i prev =
      match fetch () with
      | Error msg -> failwith ("top: " ^ msg)
      | Ok (snap, health) ->
        let now = Obs.Span.elapsed () in
        let qps =
          Option.map
            (fun (p, t0) -> Serve.Dash.qps ~prev:p ~dt:(now -. t0) snap)
            prev
        in
        if clear then print_string "\027[H\027[2J";
        print_string (Serve.Dash.render ?qps ?health snap);
        flush stdout;
        if count = 0 || i + 1 < count then begin
          Unix.sleepf interval;
          loop (i + 1) (Some (snap, now))
        end
    in
    loop 0 None
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard of a running daemon: qps, queue depth, \
             in-flight, per-request-type latency percentiles, refusal and \
             restart counters")
    Term.(const run $ socket_arg $ port_arg $ interval_arg $ count_arg
          $ no_clear_arg)

let () =
  let info =
    Cmd.info "relaware" ~version:"1.0"
      ~doc:"Reliability-aware design to suppress aging (DAC'16 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ characterize_cmd; report_cmd; guardband_cmd; synth_cmd; export_cmd;
            experiment_cmd; check_cmd; obs_cmd; serve_cmd; query_cmd;
            soak_cmd; top_cmd ]))
