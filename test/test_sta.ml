module N = Aging_netlist.Netlist
module Builder = N.Builder
module Library = Aging_liberty.Library
module Timing = Aging_sta.Timing
module Paths = Aging_sta.Paths
module Report = Aging_sta.Report
module Designs = Aging_designs.Designs

let fresh () = Lazy.force Fixtures.fresh_library
let aged () = Lazy.force Fixtures.aged_library

(* A 4-inverter chain with a primary output. *)
let chain n =
  let b = Builder.create "chain" in
  let a = Builder.input b "a" in
  let rec go prev i =
    if i = 0 then prev
    else
      match Builder.cell b "INV_X1" ~inputs:[ ("A", prev) ] with
      | [ y ] -> go y (i - 1)
      | _ -> Alcotest.fail "arity"
  in
  Builder.output b "y" (go a n);
  Builder.finish b

let test_chain_analysis () =
  let nl = chain 4 in
  let analysis = Timing.analyze ~library:(fresh ()) nl in
  let period = Timing.min_period analysis in
  Alcotest.(check bool) "4 stages of 10..40 ps each" true
    (period > 4e-11 && period < 2e-10);
  let cp = Paths.critical analysis in
  Alcotest.(check int) "path length" 4 (List.length cp.Paths.steps);
  Alcotest.(check bool) "stage delays positive" true
    (List.for_all (fun (s : Paths.step) -> s.Paths.stage_delay > 0.) cp.Paths.steps)

let test_longer_chain_slower () =
  let p n = Timing.min_period (Timing.analyze ~library:(fresh ()) (chain n)) in
  Alcotest.(check bool) "monotone in depth" true (p 2 < p 4 && p 4 < p 8)

let test_aged_slower () =
  let nl = chain 6 in
  let f = Timing.min_period (Timing.analyze ~library:(fresh ()) nl) in
  let a = Timing.min_period (Timing.analyze ~library:(aged ()) nl) in
  Alcotest.(check bool) "aged period larger" true (a > f);
  Alcotest.(check bool) "guardband below 40%" true (a /. f < 1.4)

let test_output_load_config () =
  let nl = chain 2 in
  let p load =
    Timing.min_period
      (Timing.analyze
         ~config:{ Timing.default_config with Timing.output_load = load }
         ~library:(fresh ()) nl)
  in
  Alcotest.(check bool) "bigger output load is slower" true (p 1.6e-14 > p 1e-15)

let test_retime_matches_arrival () =
  (* Re-timing the critical path under the same library must reproduce the
     analysis arrival: same tables, same loads, same slews. *)
  let nl = Designs.counter ~bits:6 in
  let lib = fresh () in
  let analysis = Timing.analyze ~library:lib nl in
  let cp = Paths.critical analysis in
  let retimed =
    Paths.retime ~library:lib ~config:(Timing.config analysis) ~analysis cp
  in
  Fixtures.check_close ~tol:1e-13 "retime consistency"
    cp.Paths.endpoint.Timing.data_arrival retimed

let test_retime_aged_larger () =
  let nl = Designs.counter ~bits:6 in
  let analysis = Timing.analyze ~library:(fresh ()) nl in
  let cp = Paths.critical analysis in
  let fresh_d =
    Paths.retime ~library:(fresh ()) ~config:(Timing.config analysis) ~analysis cp
  in
  let aged_d =
    Paths.retime ~library:(aged ()) ~config:(Timing.config analysis) ~analysis cp
  in
  Alcotest.(check bool) "aged retime larger" true (aged_d > fresh_d)

let test_sequential_endpoints () =
  let nl = Designs.counter ~bits:4 in
  let analysis = Timing.analyze ~library:(fresh ()) nl in
  let endpoints = Timing.endpoints analysis in
  let has_ff =
    List.exists
      (fun (e : Timing.endpoint_timing) ->
        match e.Timing.endpoint with
        | Timing.Flipflop_d _ -> e.Timing.setup > 0.
        | Timing.Output_port _ -> false)
      endpoints
  in
  let po_setup_zero =
    List.for_all
      (fun (e : Timing.endpoint_timing) ->
        match e.Timing.endpoint with
        | Timing.Output_port _ -> e.Timing.setup = 0.
        | Timing.Flipflop_d _ -> true)
      endpoints
  in
  Alcotest.(check bool) "flip-flop endpoint with setup" true has_ff;
  Alcotest.(check bool) "output ports have no setup" true po_setup_zero;
  Alcotest.(check bool) "worst first" true
    (match endpoints with
    | a :: b :: _ ->
      a.Timing.data_arrival +. a.Timing.setup
      >= b.Timing.data_arrival +. b.Timing.setup
    | _ -> true)

let test_structure_reuse () =
  let nl = Designs.counter ~bits:5 in
  let structure = Timing.prepare_structure nl in
  let direct = Timing.min_period (Timing.analyze ~library:(fresh ()) nl) in
  let via = Timing.min_period (Timing.analyze ~structure ~library:(fresh ()) nl) in
  Fixtures.check_close ~tol:0. "same result through cached structure" direct via

let test_duplicate_instance_names () =
  (* Instances are timed by index: two instances sharing a name are both
     timed, each once. *)
  let nl = chain 3 in
  let renamed =
    {
      nl with
      N.instances =
        Array.mapi
          (fun i inst -> if i <> 1 then { inst with N.inst_name = "U" } else inst)
          nl.N.instances;
    }
  in
  let p nl = Timing.min_period (Timing.analyze ~library:(fresh ()) nl) in
  Alcotest.(check (float 0.)) "same period as with unique names" (p nl) (p renamed)

let same_timing msg ~(expected : Timing.analysis) (actual : Timing.analysis) =
  let nl = Timing.netlist expected in
  Alcotest.(check bool) (msg ^ ": netlist") true (Timing.netlist actual = nl);
  for net = 0 to nl.N.n_nets - 1 do
    Alcotest.(check (float 0.)) (msg ^ ": load") (Timing.load_on expected net)
      (Timing.load_on actual net);
    List.iter
      (fun dir ->
        List.iter
          (fun f ->
            Alcotest.(check (float 0.)) msg (f expected net dir) (f actual net dir))
          [ Timing.arrival; Timing.min_arrival; Timing.slew_at ];
        Alcotest.(check bool) (msg ^ ": provenance") true
          (Timing.provenance expected net dir = Timing.provenance actual net dir))
      [ Library.Rise; Library.Fall ]
  done;
  Alcotest.(check bool) (msg ^ ": endpoints") true
    (Timing.endpoints expected = Timing.endpoints actual)

(* Input -> 4 inverters -> flip-flop -> 3 inverters -> output. *)
let registered_chain () =
  let b = Builder.create "regchain" in
  ignore (Builder.clock b "clk");
  let invs n from =
    let rec go prev i =
      if i = 0 then prev
      else
        match Builder.cell b "INV_X1" ~inputs:[ ("A", prev) ] with
        | [ y ] -> go y (i - 1)
        | _ -> Alcotest.fail "arity"
    in
    go from n
  in
  let d = invs 4 (Builder.input b "a") in
  match Builder.cell b "DFF_X1" ~inputs:[ ("D", d) ] with
  | [ q ] ->
    Builder.output b "y" (invs 3 q);
    Builder.finish b
  | _ -> Alcotest.fail "arity"

let test_incremental_swaps () =
  let lib = fresh () in
  let nl = registered_chain () in
  let counter name =
    Option.value ~default:0. (Aging_obs.Metrics.value_by_name name)
  in
  let analyses = counter "sta.analyses" and updates = counter "sta.updates" in
  let timer = Timing.Incremental.create ~library:lib nl in
  let view = Timing.Incremental.analysis timer in
  let original = Timing.analyze ~library:lib nl in
  let other_variant (s : Paths.step) =
    let base = (N.catalog_cell s.Paths.inst).Aging_cells.Cell.base in
    List.find_opt
      (fun (e : Library.entry) ->
        e.Library.cell.Aging_cells.Cell.base = base
        && e.Library.indexed_name <> s.Paths.inst.N.cell_name)
      (Library.entries lib)
  in
  (* Re-bind the first and last critical-path stages that have a variant. *)
  let stages =
    List.filter_map
      (fun s -> Option.map (fun e -> (s, e.Library.indexed_name)) (other_variant s))
      (Paths.critical view).Paths.steps
  in
  let first = List.hd stages and last = List.hd (List.rev stages) in
  let swapped = ref nl in
  let swap ((s : Paths.step), cell) =
    Timing.Incremental.swap timer ~inst:s.Paths.index ~cell;
    swapped :=
      {
        !swapped with
        N.instances =
          Array.mapi
            (fun i inst ->
              if i = s.Paths.index then { inst with N.cell_name = cell } else inst)
            !swapped.N.instances;
      };
    same_timing "after swap" ~expected:(Timing.analyze ~library:lib !swapped) view
  in
  swap first;
  Timing.Incremental.commit timer;
  let committed = Timing.analyze ~library:lib !swapped in
  swap last;
  Alcotest.(check bool) "the swap moved the period" true
    (Timing.min_period view <> Timing.min_period committed);
  Timing.Incremental.rollback timer;
  same_timing "after rollback to the commit" ~expected:committed view;
  Alcotest.(check bool) "first swap kept" true
    (Timing.min_period view <> Timing.min_period original);
  Alcotest.(check (float 0.)) "one full pass for the timer plus the references" 5.
    (counter "sta.analyses" -. analyses);
  Alcotest.(check (float 0.)) "two swaps and a rollback" 3.
    (counter "sta.updates" -. updates)

let test_missing_cell_fails () =
  let nl = chain 2 in
  let tiny =
    Library.create ~lib_name:"tiny" ~axes:Aging_liberty.Axes.coarse
      [ Library.find_exn (fresh ()) "NAND2_X1" ]
  in
  try
    ignore (Timing.analyze ~library:tiny nl);
    Alcotest.fail "missing cell accepted"
  with Failure _ -> ()

let test_report_strings () =
  let nl = Designs.counter ~bits:4 in
  let f = Timing.analyze ~library:(fresh ()) nl in
  let a = Timing.analyze ~library:(aged ()) nl in
  let s = Report.summary f in
  Alcotest.(check bool) "summary mentions design" true
    (String.length s > 0
    && String.length (Report.guardband ~fresh:f ~aged:a) > 0)

let test_min_arrival_and_hold () =
  let nl = Designs.counter ~bits:6 in
  let analysis = Timing.analyze ~library:(fresh ()) nl in
  (* Earliest never exceeds latest on any reachable net. *)
  for net = 0 to nl.N.n_nets - 1 do
    List.iter
      (fun dir ->
        let late = Timing.arrival analysis net dir in
        let early = Timing.min_arrival analysis net dir in
        if late > neg_infinity && early < infinity then
          Alcotest.(check bool) "early <= late" true (early <= late +. 1e-15))
      [ Library.Rise; Library.Fall ]
  done;
  let slacks = Timing.hold_slacks analysis in
  Alcotest.(check int) "one hold slack per flip-flop" 6 (List.length slacks);
  Alcotest.(check bool) "worst hold is the minimum" true
    (List.for_all
       (fun (_, s) -> s >= Timing.worst_hold_slack analysis -. 1e-15)
       slacks)

let test_hold_aging_side () =
  (* Counter bit 0's D comes straight back from an inverter: short path. *)
  let nl = Designs.counter ~bits:6 in
  let f = Timing.analyze ~library:(fresh ()) nl in
  let a = Timing.analyze ~library:(aged ()) nl in
  Alcotest.(check bool) "hold slacks finite both ways" true
    (Timing.worst_hold_slack f < infinity && Timing.worst_hold_slack a < infinity)

let test_provenance_sources () =
  let nl = chain 2 in
  let analysis = Timing.analyze ~library:(fresh ()) nl in
  let _, input_net = List.hd nl.N.input_ports in
  Alcotest.(check bool) "inputs are start points" true
    (Timing.provenance analysis input_net Library.Rise = None)

let prop_arrival_dominates_stages =
  Fixtures.qtest ~count:20 "endpoint arrival equals the sum of its stage delays"
    QCheck2.Gen.(int_range 2 8)
    (fun depth ->
      let nl = chain depth in
      let analysis = Timing.analyze ~library:(Lazy.force Fixtures.fresh_library) nl in
      let cp = Paths.critical analysis in
      let total =
        List.fold_left (fun acc (s : Paths.step) -> acc +. s.Paths.stage_delay) 0.
          cp.Paths.steps
      in
      Float.abs (total -. cp.Paths.total) < 1e-13)

let suite =
  [
    ("sta: inverter chain", `Quick, test_chain_analysis);
    ("sta: depth monotone", `Quick, test_longer_chain_slower);
    ("sta: aged library slower", `Quick, test_aged_slower);
    ("sta: output load config", `Quick, test_output_load_config);
    ("paths: retime consistency", `Quick, test_retime_matches_arrival);
    ("paths: aged retime larger", `Quick, test_retime_aged_larger);
    ("sta: sequential endpoints", `Quick, test_sequential_endpoints);
    ("sta: structure cache", `Quick, test_structure_reuse);
    ("sta: duplicate instance names", `Quick, test_duplicate_instance_names);
    ("sta: incremental swaps and rollback", `Quick, test_incremental_swaps);
    ("sta: missing cell", `Quick, test_missing_cell_fails);
    ("sta: reports", `Quick, test_report_strings);
    ("sta: provenance of sources", `Quick, test_provenance_sources);
    ("sta: min arrivals and hold slacks", `Quick, test_min_arrival_and_hold);
    ("sta: hold under aging", `Quick, test_hold_aging_side);
  ]

let props = [ prop_arrival_dominates_stages ]
