module Scenario = Aging_physics.Scenario
module Degradation = Aging_physics.Degradation
module Axes = Aging_liberty.Axes
module Library = Aging_liberty.Library
module Characterize = Aging_liberty.Characterize
module Nldm = Aging_liberty.Nldm
module Netlist = Aging_netlist.Netlist
module Timing = Aging_sta.Timing
module Paths = Aging_sta.Paths
module Flow = Aging_synth.Flow
module Cell = Aging_cells.Cell
module Catalog = Aging_cells.Catalog
module Image = Aging_image.Image
module Stats = Aging_util.Stats
module Tablefmt = Aging_util.Tablefmt

type t = {
  deglib : Degradation_library.t;        (* 10-year lifetime *)
  deglib_1y : Degradation_library.t;     (* 1-year lifetime *)
  deglib_3y : Degradation_library.t;     (* 3-year lifetime *)
  quick : bool;
  mutable design_cache : (string * Netlist.t) list;
  mutable comparison_cache : (string * Aging_synthesis.comparison) list;
  mutable chain_cache :
    (Image.t * Image.t * float * (string * Image.t * float) list) option;
      (* the image chain's runs, shared by fig6c and fig7 *)
}

let create ?(quick = false) ?(cache_dir = "_libcache") ?(jobs = 1) () =
  {
    deglib = Degradation_library.create ~cache_dir ~jobs ();
    deglib_1y = Degradation_library.create ~years:1. ~cache_dir ~jobs ();
    deglib_3y = Degradation_library.create ~years:3. ~cache_dir ~jobs ();
    quick;
    design_cache = [];
    comparison_cache = [];
    chain_cache = None;
  }

let deglib t = t.deglib

let design_names t =
  if t.quick then [ "DSP"; "RISC-5P"; "DCT" ]
  else [ "DSP"; "FFT"; "RISC-6P"; "RISC-5P"; "VLIW"; "DCT"; "IDCT" ]

let design t name =
  match List.assoc_opt name t.design_cache with
  | Some d -> d
  | None ->
    let d =
      match Aging_designs.Designs.by_name name with
      | Some d -> d
      | None -> failwith ("Experiments: unknown design " ^ name)
    in
    t.design_cache <- (name, d) :: t.design_cache;
    d

let designs t = List.map (fun name -> (name, design t name)) (design_names t)

let flow_options_for t netlist =
  let n = Array.length netlist.Netlist.instances in
  let base = Flow.default_options in
  if t.quick then { base with Flow.sizing_passes = 3; map_rounds = 1 }
  else if n > 6000 then { base with Flow.sizing_passes = 4; map_rounds = 1 }
  else { base with Flow.sizing_passes = 8 }

let comparison t name =
  match List.assoc_opt name t.comparison_cache with
  | Some c -> c
  | None ->
    let d = design t name in
    let c = Aging_synthesis.run ~options:(flow_options_for t d) ~deglib:t.deglib d in
    t.comparison_cache <- (name, c) :: t.comparison_cache;
    c

let traditional t name = (comparison t name).Aging_synthesis.traditional

let ps s = Printf.sprintf "%.1f" (s *. 1e12)
let pct r = Printf.sprintf "%+.1f" (r *. 100.)

let heading title = Printf.sprintf "=== %s ===\n" title

(* ------------------------------ Fig. 1 ------------------------------ *)

let delta_grid fresh_entry aged_entry ~dir =
  let arc_of e = List.hd e.Library.arcs in
  let fa = arc_of fresh_entry and aa = arc_of aged_entry in
  let table (a : Library.arc) =
    match dir with Library.Rise -> a.Library.delay_rise | Library.Fall -> a.Library.delay_fall
  in
  let tf = table fa and ta = table aa in
  let slews = tf.Nldm.slews and loads = tf.Nldm.loads in
  Array.mapi
    (fun i _ ->
      Array.mapi
        (fun j _ ->
          let d0 = tf.Nldm.values.(i).(j) and d1 = ta.Nldm.values.(i).(j) in
          if Float.abs d0 < 1e-13 then 0. else (d1 -. d0) /. d0)
        loads)
    slews

let grid_report ~axes name grid =
  let header =
    "slew\\load (fF)"
    :: Array.to_list (Array.map (fun l -> Printf.sprintf "%.1f" (l *. 1e15)) axes.Axes.loads)
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i row ->
           Printf.sprintf "%.0f ps" (axes.Axes.slews.(i) *. 1e12)
           :: Array.to_list (Array.map (fun d -> Printf.sprintf "%+.1f%%" (d *. 100.)) row))
         grid)
  in
  name ^ "\n" ^ Tablefmt.render ~header rows

let fig1 t =
  let fresh = Degradation_library.fresh t.deglib in
  let aged = Degradation_library.worst_case t.deglib in
  let axes = Degradation_library.axes t.deglib in
  let entry lib name = Library.find_exn lib name in
  let nand =
    delta_grid (entry fresh "NAND2_X1") (entry aged "NAND2_X1") ~dir:Library.Rise
  in
  let nor =
    delta_grid (entry fresh "NOR2_X1") (entry aged "NOR2_X1") ~dir:Library.Fall
  in
  let nor_rise =
    delta_grid (entry fresh "NOR2_X1") (entry aged "NOR2_X1") ~dir:Library.Rise
  in
  heading "Fig. 1: delay increase vs operating conditions (worst-case aging, 10 y)"
  ^ grid_report ~axes "NAND2_X1, output rise (paper 1a: grows with slew, damped by load)" nand
  ^ grid_report ~axes
      "NOR2_X1, output fall (paper 1b: improves at large slews, down to -60 %)" nor
  ^ grid_report ~axes "NOR2_X1, output rise (stacked pull-up: strongest degradation)"
      nor_rise

(* ------------------------------ Fig. 2 ------------------------------ *)

let arc_deltas t =
  let fresh = Degradation_library.fresh t.deglib in
  let aged = Degradation_library.worst_case t.deglib in
  let axes = Degradation_library.axes t.deglib in
  let single = ref [] and multi = ref [] in
  List.iter
    (fun (fe : Library.entry) ->
      if fe.Library.cell.Cell.kind = Cell.Combinational then begin
        match Library.find aged fe.Library.indexed_name with
        | None -> ()
        | Some ae ->
          List.iter
            (fun (fa : Library.arc) ->
              match
                List.find_opt
                  (fun (aa : Library.arc) ->
                    aa.Library.from_pin = fa.Library.from_pin
                    && aa.Library.to_pin = fa.Library.to_pin)
                  ae.Library.arcs
              with
              | None -> ()
              | Some aa ->
                List.iter
                  (fun dir ->
                    Array.iteri
                      (fun i slew ->
                        Array.iteri
                          (fun j load ->
                            ignore i;
                            ignore j;
                            let d0 = Library.delay_of fa ~dir ~slew ~load in
                            let d1 = Library.delay_of aa ~dir ~slew ~load in
                            (* Relative change is only meaningful for
                               solidly positive baselines (very slow ramps
                               can give near-zero or negative delays). *)
                            if d0 > 3e-12 then begin
                              let delta = (d1 -. d0) /. d0 in
                              multi := delta :: !multi;
                              if slew = axes.Axes.slews.(0) && load = axes.Axes.loads.(0)
                              then single := delta :: !single
                            end)
                          axes.Axes.loads)
                      axes.Axes.slews)
                  [ Library.Rise; Library.Fall ])
            fe.Library.arcs
      end)
    (Library.entries fresh);
  (!single, !multi)

let histogram_report label samples =
  let h = Stats.histogram ~lo:(-0.6) ~hi:1.0 ~bins:16 samples in
  let rows =
    List.filter_map
      (fun (lo, hi, count) ->
        if count = 0 then None
        else
          Some
            [ Printf.sprintf "%+.0f%% .. %+.0f%%" (lo *. 100.) (hi *. 100.);
              string_of_int count ])
      (Stats.histogram_rows h)
  in
  let lo, hi = Stats.min_max samples in
  Printf.sprintf "%s: %d samples, range %+.1f%% .. %+.1f%%, improving %.1f%%\n"
    label (List.length samples) (lo *. 100.) (hi *. 100.)
    (Stats.fraction_below 0. samples *. 100.)
  ^ Tablefmt.render ~header:[ "delay increase"; "occurrences" ] rows

let fig2 t =
  let single, multi = arc_deltas t in
  heading "Fig. 2: aging impact across the library (worst-case aging)"
  ^ histogram_report
      "single OPC (min slew, min load) — paper: all positive, up to ~15%" single
  ^ histogram_report
      "all 49 OPCs — paper: wide range (-60%..+400%), ~16% improving" multi

(* ------------------------------ Fig. 3 ------------------------------ *)

let fig3 t =
  let fresh = Scenario.scenario ~years:(Degradation_library.years t.deglib) Scenario.fresh in
  let worst = Scenario.scenario ~years:(Degradation_library.years t.deglib) Scenario.worst_case in
  let m1f = Path_demo.measure ~scenario:fresh Path_demo.path1 in
  let m1a = Path_demo.measure ~scenario:worst Path_demo.path1 in
  let m2f = Path_demo.measure ~scenario:fresh Path_demo.path2 in
  let m2a = Path_demo.measure ~scenario:worst Path_demo.path2 in
  let stage_string m =
    String.concat " + "
      (Array.to_list (Array.map (fun d -> ps d) m.Path_demo.stage_delays))
  in
  let row name mf ma =
    [ name; stage_string mf; ps mf.Path_demo.total; stage_string ma;
      ps ma.Path_demo.total;
      pct ((ma.Path_demo.total /. mf.Path_demo.total) -. 1.) ]
  in
  let critical_fresh = if m1f.Path_demo.total >= m2f.Path_demo.total then "path1" else "path2" in
  let critical_aged = if m1a.Path_demo.total >= m2a.Path_demo.total then "path1" else "path2" in
  heading "Fig. 3: criticality switch under aging (transistor-level measurement)"
  ^ Tablefmt.render
      ~header:
        [ "path"; "fresh stages (ps)"; "fresh total"; "aged stages (ps)";
          "aged total"; "delta" ]
      [ row "path1" m1f m1a; row "path2" m2f m2a ]
  ^ Printf.sprintf
      "critical before aging: %s; after aging: %s%s (paper: the roles switch)\n"
      critical_fresh critical_aged
      (if critical_fresh <> critical_aged then " -> SWITCHED" else "")

(* ------------------------------ Fig. 5 ------------------------------ *)

let fig5_generic t ~title ~paper_note ~alt_label ~alt =
  let rows = ref [] in
  let ratios = ref [] in
  List.iter
    (fun name ->
      let netlist = traditional t name in
      let full =
        Guardband.static ~deglib:t.deglib ~corner:Scenario.worst_case netlist
      in
      let other = alt netlist in
      let ratio =
        if full.Guardband.guardband > 0. then
          (other.Guardband.guardband /. full.Guardband.guardband) -. 1.
        else 0.
      in
      ratios := ratio :: !ratios;
      rows :=
        [ name; ps full.Guardband.guardband; ps other.Guardband.guardband;
          pct ratio ^ "%" ]
        :: !rows)
    (design_names t);
  let avg = Stats.mean !ratios in
  heading title
  ^ Tablefmt.render
      ~header:[ "design"; "guardband [ps]"; alt_label ^ " [ps]"; "delta" ]
      (List.rev !rows)
  ^ Printf.sprintf "average delta: %s%% (%s)\n" (pct avg) paper_note

let fig5a t =
  fig5_generic t
    ~title:"Fig. 5a: neglecting mobility degradation (Vth-only analysis)"
    ~paper_note:"paper: -19% on average" ~alt_label:"Vth-only"
    ~alt:(fun netlist ->
      Guardband.static ~mode:Degradation.Vth_only ~deglib:t.deglib
        ~corner:Scenario.worst_case netlist)

let fig5b t =
  fig5_generic t ~title:"Fig. 5b: single-OPC aging model"
    ~paper_note:"paper: +214% on average" ~alt_label:"single-OPC"
    ~alt:(fun netlist ->
      Guardband.single_opc ~deglib:t.deglib ~corner:Scenario.worst_case netlist)

let fig5c t =
  fig5_generic t
    ~title:"Fig. 5c: re-timing only the initial critical path"
    ~paper_note:"paper: wrong (-6%) in all circuits" ~alt_label:"initial-CP"
    ~alt:(fun netlist ->
      Guardband.initial_cp_only ~deglib:t.deglib ~corner:Scenario.worst_case
        netlist)

(* ------------------------------ Fig. 6 ------------------------------ *)

let fig6a t =
  let rows = ref [] and reductions = ref [] and gains = ref [] in
  List.iter
    (fun name ->
      let c = comparison t name in
      reductions := Aging_synthesis.guardband_reduction c :: !reductions;
      gains := Aging_synthesis.frequency_gain c :: !gains;
      rows :=
        [ name;
          ps (Aging_synthesis.required_guardband c);
          ps (Aging_synthesis.contained_guardband c);
          pct (Aging_synthesis.guardband_reduction c) ^ "%";
          pct (Aging_synthesis.frequency_gain c) ^ "%" ]
        :: !rows)
    (design_names t);
  heading "Fig. 6a: guardband containment by aging-aware synthesis"
  ^ Tablefmt.render
      ~header:
        [ "design"; "required GB [ps]"; "contained GB [ps]"; "reduction";
          "freq gain" ]
      (List.rev !rows)
  ^ Printf.sprintf
      "average reduction %s%% (paper: ~50%%, up to 75%%); average frequency gain %s%% (paper: ~4%%)\n"
      (pct (Stats.mean !reductions))
      (pct (Stats.mean !gains))

let fig6b t =
  let rows = ref [] and overheads = ref [] in
  List.iter
    (fun name ->
      let c = comparison t name in
      let ovh = Aging_synthesis.area_overhead c in
      overheads := ovh :: !overheads;
      rows :=
        [ name;
          Printf.sprintf "%.1f" (Netlist.area c.Aging_synthesis.traditional *. 1e12);
          Printf.sprintf "%.1f" (Netlist.area c.Aging_synthesis.aware *. 1e12);
          pct ovh ^ "%" ]
        :: !rows)
    (design_names t);
  heading "Fig. 6b: area of traditional vs aging-aware designs"
  ^ Tablefmt.render
      ~header:[ "design"; "traditional [um^2]"; "aging-aware [um^2]"; "overhead" ]
      (List.rev !rows)
  ^ Printf.sprintf "average overhead %s%% (paper: ~0.2%%)\n"
      (pct (Stats.mean !overheads))

(* --------------------------- Fig. 6c / 7 --------------------------- *)

let image_of t =
  let size = if t.quick then 16 else 32 in
  Aging_image.Synthetic.portrait ~width:size ~height:size

let scenario_libraries t =
  [
    ("unaged (year 0)", Degradation_library.fresh t.deglib);
    ("balance, year 1", Degradation_library.corner t.deglib_1y Scenario.balanced);
    ("worst, year 1", Degradation_library.corner t.deglib_1y Scenario.worst_case);
    ("worst, year 3", Degradation_library.corner t.deglib_3y Scenario.worst_case);
    ("worst, year 10", Degradation_library.worst_case t.deglib);
  ]

let chain_designs t =
  (* The image chain always uses the real DCT and IDCT designs, even in
     quick mode (IDCT falls back to a fresh compile). *)
  let dct_cmp = comparison t "DCT" in
  let idct_cmp =
    if List.mem "IDCT" (design_names t) then comparison t "IDCT"
    else begin
      match List.assoc_opt "IDCT" t.comparison_cache with
      | Some c -> c
      | None ->
        let d = Aging_designs.Designs.idct () in
        let c =
          Aging_synthesis.run ~options:(flow_options_for t d) ~deglib:t.deglib d
        in
        t.comparison_cache <- ("IDCT", c) :: t.comparison_cache;
        c
    end
  in
  (dct_cmp, idct_cmp)

let simulate_chain t =
  let dct_cmp, idct_cmp = chain_designs t in
  let original = image_of t in
  let reference = System_eval.reference_image original in
  (* The common frequency: maximum performance achieved in the absence of
     aging by the traditionally synthesized chain — the fastest clock at
     which the year-0 gate-level chain still decodes the image perfectly
     (data-dependent sensitization makes this faster than the STA bound),
     as in the paper's simulation setup. *)
  let fresh_lib = Degradation_library.fresh t.deglib in
  let period =
    System_eval.rated_chain_period
      ~dct:
        (Aging_sim.Event_sim.prepare ~library:fresh_lib
           dct_cmp.Aging_synthesis.traditional)
      ~idct:
        (Aging_sim.Event_sim.prepare ~library:fresh_lib
           idct_cmp.Aging_synthesis.traditional)
      original
  in
  let run ~label (dct_nl, idct_nl) library =
    let dct_sim = Aging_sim.Event_sim.prepare ~library dct_nl in
    let idct_sim = Aging_sim.Event_sim.prepare ~library idct_nl in
    let processed =
      System_eval.process_image ~dct:dct_sim ~idct:idct_sim ~period original
    in
    (label, processed, Image.psnr ~reference:original processed)
  in
  let results =
    List.concat_map
      (fun (scenario_label, library) ->
        [
          run
            ~label:(Printf.sprintf "aging-unaware design, %s" scenario_label)
            ( dct_cmp.Aging_synthesis.traditional,
              idct_cmp.Aging_synthesis.traditional )
            library;
          run
            ~label:(Printf.sprintf "aging-aware design, %s" scenario_label)
            (dct_cmp.Aging_synthesis.aware, idct_cmp.Aging_synthesis.aware)
            library;
        ])
      (scenario_libraries t)
  in
  (original, reference, period, results)

let psnr_runs t =
  match t.chain_cache with
  | Some runs -> runs
  | None ->
    let runs = simulate_chain t in
    t.chain_cache <- Some runs;
    runs

let fig6c t =
  let original, reference, period, results = psnr_runs t in
  let rows =
    List.map
      (fun (label, _, psnr) ->
        [ label;
          (if psnr = infinity then "inf" else Printf.sprintf "%.1f" psnr) ])
      results
  in
  heading "Fig. 6c: DCT-IDCT image quality under aging (no guardband)"
  ^ Printf.sprintf
      "clock period %s ps (no-aging performance of the traditional design)\n"
      (ps period)
  ^ Printf.sprintf "error-free fixed-point chain PSNR: %.1f dB\n"
      (Image.psnr ~reference:original reference)
  ^ Tablefmt.render ~header:[ "scenario"; "PSNR [dB]" ] rows
  ^ "paper: unaware design ~9 dB after 1 worst-case year, ~19 dB balanced; \
     aware design keeps the unaged PSNR for 10 years (30 dB = acceptable)\n"

let fig7 t ?(dir = "fig7_out") () =
  let original, reference, _, results = psnr_runs t in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let sanitize label =
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> ch
        | ' ' | ',' | '-' | '(' | ')' -> '_'
        | _ -> '_')
      label
  in
  Aging_image.Pgm.write (Filename.concat dir "original.pgm") original;
  Aging_image.Pgm.write (Filename.concat dir "reference.pgm") reference;
  let rows =
    List.map
      (fun (label, processed, psnr) ->
        let file = Filename.concat dir (sanitize label ^ ".pgm") in
        Aging_image.Pgm.write file processed;
        [ label; Printf.sprintf "%.1f" psnr; file ])
      results
  in
  heading "Fig. 7: decoded images under aging (written as PGM)"
  ^ Tablefmt.render ~header:[ "scenario"; "PSNR [dB]"; "file" ] rows

(* ------------------------------ libgen ------------------------------ *)

let libgen t ?corners () =
  let corners =
    (* Default to the 3x3 sub-grid: corner suffixes are exact at one
       decimal, and the paper's full 11x11 grid (121 corners) is one
       [~corners:(Scenario.grid ())] away at ~2 s per corner on two cores. *)
    match corners with
    | Some c -> c
    | None -> Scenario.grid ~step:0.5 ()
  in
  let complete = Degradation_library.complete t.deglib corners in
  let entries = Library.entries complete in
  let n_cells = List.length entries in
  let arcs =
    List.fold_left (fun acc e -> acc + List.length e.Library.arcs) 0 entries
  in
  heading "Complete degradation-aware library (Sec. 4.1 artifact)"
  ^ Printf.sprintf
      "corners: %d (paper: 121 at step 0.1); merged cells: %d; timing arcs: %d\n"
      (List.length corners) n_cells arcs
  ^ Printf.sprintf
      "indexed naming example: %s (paper scheme: AND2_0.4_0.6)\n"
      (match entries with e :: _ -> e.Library.indexed_name | [] -> "-")

(* --------------------------- hold extension --------------------------- *)

let hold_check t =
  let fresh_lib = Degradation_library.fresh t.deglib in
  let aged_lib = Degradation_library.worst_case t.deglib in
  let rows =
    List.map
      (fun (name, design) ->
        let fresh = Timing.analyze ~library:fresh_lib design in
        let aged = Timing.analyze ~library:aged_lib design in
        let sf = Timing.hold_slacks fresh and sa = Timing.hold_slacks aged in
        let lost =
          List.fold_left
            (fun acc (ff, slack_aged) ->
              match List.assoc_opt ff sf with
              | Some slack_fresh when slack_aged < slack_fresh -. 1e-13 ->
                acc + 1
              | Some _ | None -> acc)
            0 sa
        in
        [ name;
          ps (Timing.worst_hold_slack fresh);
          ps (Timing.worst_hold_slack aged);
          string_of_int lost;
          string_of_int (List.length sa) ])
      (designs t)
  in
  heading "Extension: hold margins under aging (early-path side of Fig. 1b)"
  ^ Tablefmt.render
      ~header:
        [ "design"; "fresh worst hold [ps]"; "aged worst hold [ps]";
          "FFs losing margin"; "FFs" ]
      rows
  ^ "arcs that aging speeds up (improving NOR-class falls) shorten the      earliest arrivals; a margin loss here would be invisible to a      max-delay-only guardband.
"

(* ----------------------------- ablations ----------------------------- *)

let ablate_backend t =
  let scenario =
    Scenario.scenario ~years:(Degradation_library.years t.deglib)
      Scenario.worst_case
  in
  let cells = [ "INV_X1"; "NAND2_X1"; "NOR2_X1"; "BUF_X4"; "XOR2_X1"; "MUX2_X1" ] in
  let rows =
    List.map
      (fun name ->
        let cell = Catalog.find_exn name in
        let arc = List.hd (Cell.arcs cell) in
        let slew = 9e-11 and load = 4e-15 in
        let dt, _ =
          Characterize.arc_measure Characterize.default_backend ~scenario ~cell
            ~arc ~dir:Library.Rise ~slew ~load
        in
        let da, _ =
          Characterize.arc_measure Characterize.Analytic ~scenario ~cell ~arc
            ~dir:Library.Rise ~slew ~load
        in
        let stages =
          match cell.Cell.base with
          | "INV" | "NAND2" | "NOR2" -> "1"
          | "BUF" | "XOR2" -> "2"
          | "MUX2" -> "3"
          | _ -> "?"
        in
        [ name; stages; ps dt; ps da; pct ((da -. dt) /. dt) ^ "%" ])
      cells
  in
  heading "Ablation: transient vs closed-form characterization backend"
  ^ Tablefmt.render
      ~header:[ "cell"; "stages"; "transient [ps]"; "analytic [ps]"; "error" ]
      rows
  ^ "closed-form models cannot see internal slopes; the error grows with \
     stage count (the paper's argument against refs [7,9])\n"

let ablate_slew t =
  let fresh = Degradation_library.fresh t.deglib in
  let rows =
    List.map
      (fun name ->
        let d = design t name in
        let options = flow_options_for t d in
        let aware = Flow.compile ~options ~library:fresh d in
        let blind =
          Flow.compile ~options:{ options with Flow.slew_aware = false }
            ~library:fresh d
        in
        let pa = Flow.min_period ~library:fresh aware in
        let pb = Flow.min_period ~library:fresh blind in
        [ name; ps pa; ps pb; pct ((pb -. pa) /. pa) ^ "%" ])
      (if t.quick then [ "DSP" ] else [ "DSP"; "RISC-5P" ])
  in
  heading "Ablation: slew-aware vs slew-blind mapping cost"
  ^ Tablefmt.render
      ~header:[ "design"; "slew-aware [ps]"; "slew-blind [ps]"; "penalty" ]
      rows

let ablate_topk t =
  let aged_lib = Degradation_library.worst_case t.deglib in
  let fresh_lib = Degradation_library.fresh t.deglib in
  let rows =
    List.map
      (fun name ->
        let netlist = traditional t name in
        let fresh_paths =
          Paths.per_endpoint (Timing.analyze ~library:fresh_lib netlist)
        in
        let aged = Timing.analyze ~library:aged_lib netlist in
        let aged_critical = Paths.critical aged in
        let endpoint_key (p : Paths.t) = p.Paths.endpoint.Timing.endpoint in
        let rank =
          let rec find i = function
            | [] -> -1
            | p :: rest ->
              if endpoint_key p = endpoint_key aged_critical then i
              else find (i + 1) rest
          in
          find 1 fresh_paths
        in
        [ name;
          (if rank < 0 then "not found" else string_of_int rank);
          string_of_int (List.length fresh_paths) ])
      (design_names t)
  in
  heading "Ablation: rank of the post-aging critical endpoint in the fresh ordering"
  ^ Tablefmt.render
      ~header:[ "design"; "fresh rank of aged CP"; "endpoints" ]
      rows
  ^ "rank 1 means no switch; larger ranks show why top-k tracking needs care \
     (Sec. 3)\n"

let all =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig7", fun t -> fig7 t ());
    ("libgen", fun t -> libgen t ());
    ("ablate-backend", ablate_backend);
    ("ablate-slew", ablate_slew);
    ("ablate-topk", ablate_topk);
    ("hold", hold_check);
  ]
