module Timing = Aging_sta.Timing
module Paths = Aging_sta.Paths
module Netlist = Aging_netlist.Netlist

type estimate = {
  fresh_period : float;
  aged_period : float;
  guardband : float;
}

let estimate ~fresh_period ~aged_period =
  { fresh_period; aged_period; guardband = aged_period -. fresh_period }

(* The fresh and the aged pass of one netlist share its topological
   structure. *)
let period ?config ~structure ~library netlist =
  Timing.min_period (Timing.analyze ?config ~structure ~library netlist)

let static ?mode ?config ~deglib ~corner netlist =
  let fresh_lib = Degradation_library.fresh deglib in
  let aged_lib = Degradation_library.corner ?mode deglib corner in
  let structure = Timing.prepare_structure netlist in
  let fresh_period = period ?config ~structure ~library:fresh_lib netlist in
  let aged_period = period ?config ~structure ~library:aged_lib netlist in
  estimate ~fresh_period ~aged_period

let single_opc ?config ~deglib ~corner netlist =
  let fresh_lib = Degradation_library.fresh deglib in
  let pseudo = Degradation_library.single_opc deglib corner in
  let structure = Timing.prepare_structure netlist in
  let fresh_period = period ?config ~structure ~library:fresh_lib netlist in
  let aged_period = period ?config ~structure ~library:pseudo netlist in
  estimate ~fresh_period ~aged_period

let initial_cp_only ?config ~deglib ~corner netlist =
  let fresh_lib = Degradation_library.fresh deglib in
  let aged_lib = Degradation_library.corner deglib corner in
  let fresh_analysis = Timing.analyze ?config ~library:fresh_lib netlist in
  let fresh_period = Timing.min_period fresh_analysis in
  let cp = Paths.critical fresh_analysis in
  let cfg = Timing.config fresh_analysis in
  let retimed =
    Paths.retime ~library:aged_lib ~config:cfg ~analysis:fresh_analysis cp
    +. cp.Paths.endpoint.Timing.setup
  in
  estimate ~fresh_period ~aged_period:retimed

let dynamic ?config ?(cycles = 2000) ~deglib ~stimulus netlist =
  let fresh_lib = Degradation_library.fresh deglib in
  let structure = Timing.prepare_structure netlist in
  let fresh_period = period ?config ~structure ~library:fresh_lib netlist in
  let profile = Aging_sim.Activity.profile netlist ~cycles ~stimulus in
  (* Annotation only renames cells, so the structure still applies. *)
  let annotated = Aging_sim.Activity.annotate netlist profile in
  let corners = Aging_sim.Activity.corners_used annotated in
  let complete = Degradation_library.complete deglib corners in
  let aged_period = period ?config ~structure ~library:complete annotated in
  (estimate ~fresh_period ~aged_period, annotated)
