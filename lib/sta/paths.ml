module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist

type step = {
  index : int;
  inst : Netlist.instance;
  from_pin : string;
  to_pin : string;
  in_dir : Library.direction;
  out_dir : Library.direction;
  stage_delay : float;
  arrival_after : float;
}

type t = {
  start_net : Netlist.net;
  steps : step list;
  endpoint : Timing.endpoint_timing;
  total : float;
}

let endpoint_net (e : Timing.endpoint_timing) =
  match e.Timing.endpoint with
  | Timing.Output_port (_, net) -> net
  | Timing.Flipflop_d (_, net) -> net

let output_pin_for inst net =
  match
    List.find_opt (fun (_, n) -> n = net) inst.Netlist.outputs
  with
  | Some (pin, _) -> pin
  | None -> failwith "Paths: provenance instance does not drive the net"

let input_net_for inst pin =
  match List.assoc_opt pin inst.Netlist.inputs with
  | Some n -> n
  | None -> failwith "Paths: provenance pin missing"

let trace analysis (e : Timing.endpoint_timing) =
  let rec walk net dir acc =
    match Timing.provenance analysis net dir with
    | None -> (net, acc)
    | Some (index, from_pin, in_dir) ->
      let inst = Timing.instance analysis index in
      let in_net = input_net_for inst from_pin in
      let step =
        {
          index;
          inst;
          from_pin;
          to_pin = output_pin_for inst net;
          in_dir;
          out_dir = dir;
          stage_delay =
            Timing.arrival analysis net dir -. Timing.arrival analysis in_net in_dir;
          arrival_after = Timing.arrival analysis net dir;
        }
      in
      walk in_net in_dir (step :: acc)
  in
  let start_net, steps = walk (endpoint_net e) e.Timing.direction [] in
  { start_net; steps; endpoint = e; total = e.Timing.data_arrival }

let per_endpoint analysis =
  List.map (trace analysis) (Timing.endpoints analysis)

let critical analysis =
  match Timing.endpoints analysis with
  | [] -> failwith "Paths.critical: no endpoints"
  | worst :: _ -> trace analysis worst

let retime ~library ~(config : Timing.config) ~analysis path =
  let netlist = Timing.netlist analysis in
  (* Launch stage: either a primary input or a flip-flop Q pin. *)
  let first_dir =
    match path.steps with
    | s :: _ -> s.in_dir
    | [] -> path.endpoint.Timing.direction
  in
  let start_arrival, start_slew =
    match Netlist.driver_of netlist path.start_net with
    | None -> (0., config.Timing.input_slew)
    | Some (ff_inst, qpin) ->
      let entry = Timing.resolve_entry library ff_inst.Netlist.cell_name in
      begin
        match Library.arc_of entry ~from_pin:"CK" ~to_pin:qpin with
        | None -> (0., config.Timing.input_slew)
        | Some arc ->
          let load = Timing.load_on analysis path.start_net in
          ( Library.delay_of arc ~dir:first_dir ~slew:config.Timing.clock_slew
              ~load,
            Library.out_slew_of arc ~dir:first_dir
              ~slew:config.Timing.clock_slew ~load )
      end
  in
  let final_arrival, _ =
    List.fold_left
      (fun (arrival_in, slew_in) step ->
        let entry = Timing.resolve_entry library step.inst.Netlist.cell_name in
        let arc =
          match
            Library.arc_of entry ~from_pin:step.from_pin ~to_pin:step.to_pin
          with
          | Some a -> a
          | None ->
            failwith
              (Printf.sprintf "Paths.retime: no arc %s->%s on %s" step.from_pin
                 step.to_pin step.inst.Netlist.cell_name)
        in
        let out_net =
          match List.assoc_opt step.to_pin step.inst.Netlist.outputs with
          | Some n -> n
          | None -> failwith "Paths.retime: step output pin missing"
        in
        let load = Timing.load_on analysis out_net in
        let delay = Library.delay_of arc ~dir:step.out_dir ~slew:slew_in ~load in
        let out_slew =
          Library.out_slew_of arc ~dir:step.out_dir ~slew:slew_in ~load
        in
        (arrival_in +. delay, out_slew))
      (start_arrival, start_slew) path.steps
  in
  final_arrival
