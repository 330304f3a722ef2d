module Netlist = Aging_netlist.Netlist
module Timing = Aging_sta.Timing
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Log = Aging_obs.Log

let m_rounds = Metrics.counter "synth.rounds"
let g_subject_nodes = Metrics.gauge "synth.subject_nodes"
let g_cells = Metrics.gauge "synth.cells"

type options = { sizing_passes : int; map_rounds : int; slew_aware : bool }

let default_options = { sizing_passes = 12; map_rounds = 2; slew_aware = true }
let max_fanout = 16
let repair_slew = 2.5e-10

let compile ?(options = default_options) ~library (netlist : Netlist.t) =
  let design = netlist.Netlist.design_name in
  let attrs = [ ("design", design) ] in
  Span.with_ "synth.compile" ~attrs @@ fun () ->
  let subject, boundaries =
    Span.with_ "synth.decompose" ~attrs (fun () -> Decompose.of_netlist netlist)
  in
  Metrics.set g_subject_nodes (float_of_int (Subject.size subject));
  Log.debugf "synth" "%s: subject graph %d nodes" design (Subject.size subject);
  let clock_name = "clk" in
  let one_round hints =
    Metrics.incr m_rounds;
    let mapped =
      Span.with_ "synth.map" ~attrs (fun () ->
          Mapper.map ~slew_aware:options.slew_aware ?hints ~library
            ~design_name:design ~clock_name subject boundaries)
    in
    let buffered =
      Span.with_ "synth.buffer" ~attrs (fun () ->
          Buffering.buffer_fanout ~max_fanout mapped.Mapper.netlist)
    in
    let swept =
      Span.with_ "synth.variant_sweep" ~attrs (fun () ->
          Sizing.variant_sweep ~library buffered)
    in
    let sized =
      Span.with_ "synth.resize" ~attrs (fun () ->
          Sizing.resize ~passes:options.sizing_passes ~library swept)
    in
    let repaired =
      Span.with_ "synth.slew_repair" ~attrs (fun () ->
          Slew_repair.repair ~slew_limit:repair_slew ~library sized)
    in
    (repaired, mapped.Mapper.net_of_node)
  in
  (* Round 1 maps with static operating-condition estimates; later rounds
     re-map at the slews/loads measured on the previous implementation, so
     covering decisions are taken at real OPCs — where a degradation-aware
     library separates aging-tolerant from aging-sensitive cells. *)
  let extract_hints analysis net_of_node =
    let n = Array.length net_of_node in
    let node_slew = Array.make n 0. and node_load = Array.make n 0. in
    Array.iteri
      (fun id net ->
        match net with
        | None -> ()
        | Some net ->
          node_slew.(id) <-
            Float.max
              (Timing.slew_at analysis net Aging_liberty.Library.Rise)
              (Timing.slew_at analysis net Aging_liberty.Library.Fall);
          node_load.(id) <- Timing.load_on analysis net)
      net_of_node;
    { Mapper.node_slew; node_load }
  in
  let rec rounds remaining best best_period hints =
    if remaining = 0 then best
    else begin
      let sized, net_of_node = one_round hints in
      let analysis = Timing.analyze ~library sized in
      let period = Timing.min_period analysis in
      let best, best_period =
        if period < best_period then (sized, period) else (best, best_period)
      in
      if remaining = 1 then best
      else rounds (remaining - 1) best best_period
             (Some (extract_hints analysis net_of_node))
    end
  in
  let best = rounds (max 1 options.map_rounds) netlist infinity None in
  Metrics.set g_cells (float_of_int (Array.length best.Netlist.instances));
  Log.debugf "synth" "%s: mapped to %d instances" design
    (Array.length best.Netlist.instances);
  best

let min_period ~library netlist =
  Timing.min_period (Timing.analyze ~library netlist)

