module Netlist = Aging_netlist.Netlist
module Scenario = Aging_physics.Scenario

type profile = { p_high : float array; toggles : int array; cycles : int }

let profile netlist ~cycles ~stimulus =
  if cycles <= 0 then invalid_arg "Activity.profile: cycles <= 0";
  let compiled = Netlist.compile netlist in
  let n = netlist.Netlist.n_nets in
  let high = Array.make n 0 in
  let toggles = Array.make n 0 in
  let previous = Array.make n false in
  let state = ref (Netlist.initial_state netlist) in
  for cycle = 0 to cycles - 1 do
    let values = Netlist.compiled_net_values compiled !state ~inputs:(stimulus cycle) in
    for net = 0 to n - 1 do
      if values.(net) then high.(net) <- high.(net) + 1;
      if cycle > 0 && values.(net) <> previous.(net) then
        toggles.(net) <- toggles.(net) + 1;
      previous.(net) <- values.(net)
    done;
    state := Netlist.next_state_of_values compiled values
  done;
  {
    p_high = Array.map (fun h -> float_of_int h /. float_of_int cycles) high;
    toggles;
    cycles;
  }

let instance_corner profile (inst : Netlist.instance) =
  let pins = List.filter (fun (pin, _) -> pin <> "CK") inst.Netlist.inputs in
  match pins with
  | [] -> Scenario.fresh
  | _ :: _ ->
    let n = float_of_int (List.length pins) in
    let sum_high =
      List.fold_left (fun acc (_, net) -> acc +. profile.p_high.(net)) 0. pins
    in
    let lambda_n = sum_high /. n in
    Scenario.corner ~lambda_p:(1. -. lambda_n) ~lambda_n

let annotate ?(step = 0.1) netlist profile =
  Netlist.rename_cells
    (fun inst ->
      Scenario.indexed_name
        (Netlist.base_cell_name inst.Netlist.cell_name)
        (Scenario.snap ~step (instance_corner profile inst)))
    netlist

let corners_used netlist =
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun (inst : Netlist.instance) ->
      match Scenario.split_indexed inst.Netlist.cell_name with
      | _, Some corner -> Hashtbl.replace seen (Scenario.suffix corner) corner
      | _, None -> ())
    netlist.Netlist.instances;
  Hashtbl.fold (fun _ corner acc -> corner :: acc) seen []
  |> List.sort (fun a b ->
         compare
           (a.Scenario.lambda_p, a.Scenario.lambda_n)
           (b.Scenario.lambda_p, b.Scenario.lambda_n))
