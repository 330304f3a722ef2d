module Scenario = Aging_physics.Scenario
module Netlist = Aging_netlist.Netlist
module Flow = Aging_synth.Flow

type comparison = {
  traditional : Netlist.t;
  aware : Netlist.t;
  trad_fresh_period : float;
  trad_aged_period : float;
  aware_fresh_period : float;
  aware_aged_period : float;
}

let run ?options ?(corner = Scenario.worst_case) ~deglib netlist =
  let fresh_lib = Degradation_library.fresh deglib in
  let aged_lib = Degradation_library.corner deglib corner in
  let traditional =
    (* Same post-compile polish budget as the aware flow gets below, against
       the only library a traditional flow has: the fresh one. *)
    let compiled = Flow.compile ?options ~library:fresh_lib netlist in
    let swept = Aging_synth.Sizing.variant_sweep ~library:fresh_lib compiled in
    Aging_synth.Sizing.resize ~passes:20 ~library:fresh_lib swept
  in
  (* The aging-aware implementation: a from-scratch compile against the
     degradation-aware library, and an incremental re-optimization of the
     traditional result against it (re-sizing towards aging-tolerant
     variants and repairing slow transitions).  Keep whichever ages best —
     a flow given the aged library can always at least re-optimize the
     baseline, so containment is never negative by construction. *)
  let aware_scratch = Flow.compile ?options ~library:aged_lib netlist in
  let aware_incremental =
    let swept = Aging_synth.Sizing.variant_sweep ~library:aged_lib traditional in
    let resized = Aging_synth.Sizing.resize ~passes:20 ~library:aged_lib swept in
    Aging_synth.Slew_repair.repair ~library:aged_lib resized
  in
  let aged_period nl = Flow.min_period ~library:aged_lib nl in
  let aware, aware_aged_period =
    let scratch = aged_period aware_scratch in
    let incremental = aged_period aware_incremental in
    if scratch <= incremental then (aware_scratch, scratch)
    else (aware_incremental, incremental)
  in
  {
    traditional;
    aware;
    trad_fresh_period = Flow.min_period ~library:fresh_lib traditional;
    trad_aged_period = aged_period traditional;
    aware_fresh_period = Flow.min_period ~library:fresh_lib aware;
    aware_aged_period;
  }

let required_guardband c = c.trad_aged_period -. c.trad_fresh_period
let contained_guardband c = c.aware_aged_period -. c.trad_fresh_period

let guardband_reduction c =
  let required = required_guardband c in
  if required <= 0. then 0. else 1. -. (contained_guardband c /. required)

let frequency_gain c = (c.trad_aged_period /. c.aware_aged_period) -. 1.

let area_overhead c =
  (Netlist.area c.aware /. Netlist.area c.traditional) -. 1.
