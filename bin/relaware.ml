(* relaware: command-line front end of the reliability-aware design flow.

   Subcommands:
     characterize  build a degradation-aware library and write it as .alib
     report        static timing of a benchmark design, fresh and aged
     guardband     guardband estimation (full / vth-only / single-opc / cp-only)
     synth         traditional vs aging-aware synthesis comparison
     export        write Verilog netlists, aged SDF files or .lib libraries
     experiment    run one of the paper's figure reproductions
     check         property-based differential oracles with replayable seeds
     obs           inspect run-ledger records: report/trace/diff/export/history
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

(* ------------------------- shared arguments ------------------------- *)

(* Every flow subcommand shares log verbosity, the worker-domain count and
   an optional run-ledger append: the persistent record (argv, wall time,
   metrics snapshot, spans, QoR) that [relaware obs] reads back.  The
   append runs whether the command finishes or dies, so a crashed
   characterization still leaves its counters behind for a post-mortem. *)

module Obs = Aging_obs
module Run_ledger = Aging_obs.Run_ledger
module Tablefmt = Aging_util.Tablefmt

type common = {
  verbose : bool;
  quiet : bool;
  jobs : int;
  ledger_dir : string option;
}

let common_term =
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Debug-level logging (overrides $(b,AGING_LOG)).")
  in
  let quiet =
    Arg.(value & flag
         & info [ "q"; "quiet" ] ~doc:"Silence all progress logging.")
  in
  let jobs =
    Arg.(value & opt int (Aging_util.Pool.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for characterization (cells and corners in \
                   parallel; results are identical to $(b,--jobs 1)).  \
                   Default: $(b,AGING_JOBS) if set, else the recommended \
                   domain count of the machine.")
  in
  let ledger =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"DIR"
             ~doc:"Append a run record (argv, git rev, wall time, outcome, \
                   metrics snapshot, recorded spans, QoR numbers) to \
                   $(docv)/ledger.jsonl on exit.  Inspect with \
                   $(b,relaware obs).")
  in
  Term.(const (fun verbose quiet jobs ledger_dir ->
            { verbose; quiet; jobs; ledger_dir })
        $ verbose $ quiet $ jobs $ ledger)

let with_telemetry ~cmd c f =
  if c.quiet then Obs.Log.set_level Obs.Log.Quiet
  else if c.verbose then Obs.Log.set_level Obs.Log.Debug;
  match c.ledger_dir with
  | None -> f ()
  | Some dir -> (
    Obs.Span.set_recording true;
    let started_at = Unix.gettimeofday () in
    let m0 = Obs.Span.elapsed () in
    let append outcome =
      let record =
        Run_ledger.capture ~tool:"relaware" ~subcommand:cmd ~outcome
          ~started_at ~wall_s:(Obs.Span.elapsed () -. m0) ()
      in
      let path = Run_ledger.append ~dir record in
      Obs.Log.infof "ledger" "run %s appended to %s" record.Run_ledger.id path
    in
    match f () with
    | () -> append Run_ledger.Finished
    | exception e ->
      append (Run_ledger.Failed (Printexc.to_string e));
      raise e)

(* "-" writes to stdout so output can be piped straight into jq. *)
let write_file path text =
  if path = "-" then (print_string text; flush stdout)
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  end

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

let cache_arg =
  Arg.(value & opt string "_libcache"
       & info [ "cache" ] ~docv:"DIR" ~doc:"Library cache directory.")

(* The degradation-library configuration of the subcommands that time or
   build against one aging corner. *)
type deglib_opts = {
  corner : Scenario.corner;
  years : float;
  axes : Axes.t;
  cache : string;
}

let deglib_term =
  let corner =
    Arg.(value & opt corner_conv Scenario.worst_case
         & info [ "corner" ] ~docv:"LP,LN"
             ~doc:"Aging corner as pMOS,nMOS duty cycles (default worst \
                   case 1,1).")
  in
  let years =
    Arg.(value & opt float 10.
         & info [ "years" ] ~docv:"YEARS" ~doc:"Lifetime in years.")
  in
  let axes =
    Arg.(value & opt (enum [ ("paper", Axes.paper); ("coarse", Axes.coarse) ])
           Axes.paper
         & info [ "axes" ] ~docv:"GRID"
             ~doc:"OPC grid: paper (7x7) or coarse (3x3).")
  in
  Term.(const (fun corner years axes cache -> { corner; years; axes; cache })
        $ corner $ years $ axes $ cache_arg)

let deglib_of ?cells c d =
  Deg.create ?cells ~axes:d.axes ~years:d.years ~cache_dir:d.cache
    ~jobs:c.jobs ()

let design_conv = Arg.enum (List.map (fun d -> (d, d)) Designs.names)

let design_arg =
  Arg.(required & opt (some design_conv) None
       & info [ "design" ] ~docv:"NAME" ~doc:"Benchmark design name.")

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
   library vs the fresh library of the same cells, built through the same
   cache (a cache-served run simulates nothing).  This puts a
   guardband number — a genuine quality axis, not just wall time and
   counters — into every record, so [obs diff] can catch a physics or
   characterization regression between two commits. *)
let note_characterize_qor c d lib =
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
    let fresh_lib = Deg.fresh (deglib_of ~cells c d) in
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
             ~doc:"Print the characterization report (points measured / \
                   retried per cell and arc).")
  in
  let run c d cells out report =
    with_telemetry ~cmd:"characterize" c @@ fun () ->
    let deglib = deglib_of ?cells:(cells_of cells) c d in
    let lib = Deg.corner deglib d.corner in
    Io.save out lib;
    Printf.printf "wrote %s: %d cells, corner %s, %g years\n" out
      (List.length (Aging_liberty.Library.entries lib))
      (Scenario.suffix d.corner) d.years;
    if c.ledger_dir <> None then begin
      Run_ledger.note "jobs" (Obs.Json.Int c.jobs);
      note_characterize_qor c d lib
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
    Term.(const run $ common_term $ deglib_term $ cells_arg $ out_arg
          $ report_arg)

(* ------------------------------ report ------------------------------ *)

let report_cmd =
  let run c d name =
    with_telemetry ~cmd:"report" c @@ fun () ->
    let deglib = deglib_of c d in
    let design = design_of name in
    let fresh = Timing.analyze ~library:(Deg.fresh deglib) design in
    let aged = Timing.analyze ~library:(Deg.corner deglib d.corner) design in
    if c.ledger_dir <> None then begin
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
    Term.(const run $ common_term $ deglib_term $ design_arg)

(* ---------------------------- guardband ---------------------------- *)

let guardband_cmd =
  let method_arg =
    Arg.(value & opt (enum [ ("full", `Full); ("vth-only", `Vth); ("single-opc", `Sopc);
                             ("cp-only", `Cp) ]) `Full
         & info [ "method" ] ~docv:"M"
             ~doc:"full | vth-only | single-opc | cp-only (prior-work models).")
  in
  let run c d name meth =
    with_telemetry ~cmd:"guardband" c @@ fun () ->
    let deglib = deglib_of c d in
    let design = design_of name in
    let corner = d.corner in
    let g =
      match meth with
      | `Full -> Guardband.static ~deglib ~corner design
      | `Vth -> Guardband.static ~mode:Degradation.Vth_only ~deglib ~corner design
      | `Sopc -> Guardband.single_opc ~deglib ~corner design
      | `Cp -> Guardband.initial_cp_only ~deglib ~corner design
    in
    if c.ledger_dir <> None then begin
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
    Term.(const run $ common_term $ deglib_term $ design_arg $ method_arg)

(* ------------------------------ synth ------------------------------ *)

let synth_cmd =
  let run c d name =
    with_telemetry ~cmd:"synth" c @@ fun () ->
    let deglib = deglib_of c d in
    let design = design_of name in
    let module AS = Aging_core.Aging_synthesis in
    let r = AS.run ~corner:d.corner ~deglib design in
    if c.ledger_dir <> None then begin
      Run_ledger.note "design" (Obs.Json.String name);
      Run_ledger.note_qor "trad_fresh_ps" (r.AS.trad_fresh_period *. 1e12);
      Run_ledger.note_qor "trad_aged_ps" (r.AS.trad_aged_period *. 1e12);
      Run_ledger.note_qor "aware_fresh_ps" (r.AS.aware_fresh_period *. 1e12);
      Run_ledger.note_qor "aware_aged_ps" (r.AS.aware_aged_period *. 1e12);
      Run_ledger.note_qor "guardband_reduction_pct"
        (AS.guardband_reduction r *. 100.);
      Run_ledger.note_qor "area_overhead_pct" (AS.area_overhead r *. 100.)
    end;
    Printf.printf
      "traditional: fresh %.1f ps, aged %.1f ps\n\
       aging-aware: fresh %.1f ps, aged %.1f ps\n\
       required guardband %.1f ps, contained %.1f ps (reduction %.1f%%)\n\
       frequency gain %.2f%%, area overhead %.2f%%\n"
      (r.AS.trad_fresh_period *. 1e12)
      (r.AS.trad_aged_period *. 1e12)
      (r.AS.aware_fresh_period *. 1e12)
      (r.AS.aware_aged_period *. 1e12)
      (AS.required_guardband r *. 1e12)
      (AS.contained_guardband r *. 1e12)
      (AS.guardband_reduction r *. 100.)
      (AS.frequency_gain r *. 100.)
      (AS.area_overhead r *. 100.)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Traditional vs aging-aware synthesis of a design")
    Term.(const run $ common_term $ deglib_term $ design_arg)

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
    Arg.(value & opt (some design_conv) None
         & info [ "design" ] ~docv:"NAME" ~doc:"Design (verilog/sdf exports).")
  in
  let run c d what name out =
    with_telemetry ~cmd:"export" c @@ fun () ->
    let deglib = deglib_of c d in
    let required_design () =
      match name with
      | Some n -> design_of n
      | None -> failwith "--design is required for verilog/sdf exports"
    in
    begin
      match what with
      | `Liberty ->
        Aging_liberty.Liberty_format.save out (Deg.corner deglib d.corner)
      | `Verilog -> Aging_netlist.Export.save out (required_design ())
      | `Sdf ->
        let analysis =
          Timing.analyze ~library:(Deg.corner deglib d.corner)
            (required_design ())
        in
        Aging_sta.Sdf.save out analysis
    end;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write Verilog netlists, aged SDF files, or .lib libraries")
    Term.(const run $ common_term $ deglib_term $ what_arg $ design_opt
          $ out_arg)

(* ---------------------------- experiment ---------------------------- *)

let experiment_cmd =
  let which_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FIG"
             ~doc:(String.concat " " (List.map fst Experiments.all)))
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced design set / image size.")
  in
  let run c which quick cache =
    with_telemetry ~cmd:("experiment-" ^ which) c @@ fun () ->
    match List.assoc_opt which Experiments.all with
    | Some experiment ->
      let t = Experiments.create ~quick ~cache_dir:cache ~jobs:c.jobs () in
      print_string (experiment t)
    | None -> failwith ("unknown experiment: " ^ which)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's figures")
    Term.(const run $ common_term $ which_arg $ quick_arg $ cache_arg)

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
  let run c seed cases only list_only =
    if list_only then
      List.iter
        (fun (o : Oracles.t) -> Printf.printf "%-20s %s\n" o.Oracles.name o.Oracles.doc)
        (Oracles.all ())
    else begin
      let failed = ref 0 in
      with_telemetry ~cmd:"check" c (fun () ->
          (* Library builds inside the oracles narrate at info level;
             keep the report readable unless the user asked for detail. *)
          if (not c.verbose) && not c.quiet then
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
              let outcome = o.Oracles.run ~seed ~cases ~jobs:c.jobs in
              print_endline (Runner.pp_outcome outcome);
              total_cases := !total_cases + outcome.Runner.cases_run;
              let nfail = List.length outcome.Runner.failures in
              if nfail > 0 then incr failed;
              if c.ledger_dir <> None then begin
                Run_ledger.note_qor
                  ("check." ^ o.Oracles.name ^ ".cases")
                  (float_of_int outcome.Runner.cases_run);
                Run_ledger.note_qor
                  ("check." ^ o.Oracles.name ^ ".failures")
                  (float_of_int nfail)
              end)
            oracles;
          if c.ledger_dir <> None then begin
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
    Term.(const run $ common_term $ seed_arg $ cases_arg $ only_arg
          $ list_arg)

(* ------------------------------- obs ------------------------------- *)

(* Readers over the run ledger: [obs report] (one record as a profile),
   [obs trace] (Chrome trace export), [obs diff] (regression gate),
   [obs export] (the stored metrics snapshot) and [obs history] (drift
   over runs).
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
       let rows = Obs.Profile.of_spans spans in
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
                   with $(docv) (e.g. $(b,characterize.library)).  \
                   Repeatable; used by smoke gates.")
  in
  let run dir sel out required =
    let r = select_run (load_ledger dir) sel in
    if r.Run_ledger.spans = [] then
      failwith
        (Printf.sprintf
           "run %s recorded no spans"
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
   (retries/failures/corruption appearing where there were none is the
   regression, their disappearance is not); wall time is informational
   unless given an explicit tolerance — a cache-served rerun is legitimately
   ~100x faster than a cold build and must not trip the gate. *)
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
      @ List.map counter_row Obs.History.health_counters
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

(* Export one record's stored metrics snapshot (the JSON the record
   carries, verbatim). *)
let obs_export_cmd =
  let out_arg =
    Arg.(value & opt string "-"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Output path ($(b,-) = stdout).")
  in
  let run dir sel out =
    let r = select_run (load_ledger dir) sel in
    write_file out
      (Obs.Json.to_string ~pretty:true r.Run_ledger.metrics ^ "\n");
    if out <> "-" then
      Printf.printf "wrote %s from run %s\n" out r.Run_ledger.id
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export one ledger record's metrics snapshot as JSON")
    Term.(const run $ obs_ledger_arg
          $ run_selector_arg ~at:0 ~default:"-1"
              ~doc:"Record selector (as in $(b,obs report))."
          $ out_arg)

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
                   $(b,characterize)), so series are not polluted by \
                   unrelated runs sharing the ledger.")
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
             diff, metric export, drift history")
    [ obs_report_cmd; obs_trace_cmd; obs_diff_cmd; obs_export_cmd;
      obs_history_cmd ]

let () =
  let info =
    Cmd.info "relaware" ~version:"1.0"
      ~doc:"Reliability-aware design to suppress aging (DAC'16 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ characterize_cmd; report_cmd; guardband_cmd; synth_cmd; export_cmd;
            experiment_cmd; check_cmd; obs_cmd ]))
