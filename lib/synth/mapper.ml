module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Cell = Aging_cells.Cell

(* Operating conditions assumed where no hint measured them: input slew
   [s], intrinsic load and additional load per fanout [F]. *)
let est_slew = 4e-11
let est_load_base = 1e-15
let est_load_fanout = 1e-15

(* A mappable pattern: the cell's NAND2/INV decomposition as a mini subject
   graph, with its sources named after the cell pins. *)
type pattern = {
  entry : Library.entry;
  graph : Subject.t;
  root : Subject.id;
  pin_sources : (string * Subject.id) list;
  pattern_fanout : int array;
}

let pattern_of_entry (entry : Library.entry) =
  let cell = entry.Library.cell in
  if cell.Cell.kind <> Cell.Combinational then None
  else
    match cell.Cell.outputs with
    | [ _ ] -> begin
      let g = Subject.create () in
      let pins = List.map (fun p -> (p, Subject.source g p)) cell.Cell.inputs in
      match Decompose.cell_outputs g ~base:cell.Cell.base (List.map snd pins) with
      | exception Failure _ -> None
      | [ root ] -> begin
        match Subject.node g root with
        | Subject.Source _ | Subject.Const _ ->
          None (* degenerate (e.g. BUF simplifies away) *)
        | Subject.Nand _ | Subject.Inv _ ->
          Subject.set_output g "root" root;
          Some
            { entry; graph = g; root; pin_sources = pins;
              pattern_fanout = Subject.fanout_counts g }
      end
      | _ -> None
    end
    | _ -> None

(* Structural match of [pattern] rooted at subject node [n]; bindings map
   pattern ids to subject ids.  Pattern-internal nodes must be absorbed
   exactly: their subject counterpart's fanout must equal their fanout
   within the pattern. *)
let try_match subject fanout p n =
  let is_internal pid =
    pid <> p.root
    &&
    match Subject.node p.graph pid with
    | Subject.Source _ -> false
    | Subject.Const _ | Subject.Nand _ | Subject.Inv _ -> true
  in
  let rec go pid sid bind =
    match List.assoc_opt pid bind with
    | Some sid' -> if sid' = sid then Some bind else None
    | None ->
      let bind = (pid, sid) :: bind in
      begin
        match (Subject.node p.graph pid, Subject.node subject sid) with
        | Subject.Source _, _ -> Some bind
        | Subject.Const b, Subject.Const b' -> if b = b' then Some bind else None
        | Subject.Const _, (Subject.Source _ | Subject.Nand _ | Subject.Inv _) ->
          None
        | Subject.Inv pa, Subject.Inv sa -> descend pa sa bind
        | Subject.Inv _, (Subject.Source _ | Subject.Const _ | Subject.Nand _) ->
          None
        | Subject.Nand (pa, pb), Subject.Nand (sa, sb) -> begin
          match descend2 pa sa pb sb bind with
          | Some r -> Some r
          | None -> descend2 pa sb pb sa bind
        end
        | Subject.Nand _, (Subject.Source _ | Subject.Const _ | Subject.Inv _)
          ->
          None
      end
  and descend pa sa bind =
    if is_internal pa && fanout.(sa) <> p.pattern_fanout.(pa) then None
    else go pa sa bind
  and descend2 pa sa pb sb bind =
    match descend pa sa bind with
    | Some bind -> descend pb sb bind
    | None -> None
  in
  match go p.root n [] with
  | None -> None
  | Some bind ->
    (* Resolve each cell pin to its bound subject node. *)
    let leaves =
      List.map
        (fun (pin, src_id) ->
          match List.assoc_opt src_id bind with
          | Some sid -> Some (pin, sid)
          | None -> None)
        p.pin_sources
    in
    if List.for_all Option.is_some leaves then
      Some (List.map Option.get leaves)
    else None

(* Per-pin delay/slew estimate helpers. *)
let pin_arc (entry : Library.entry) pin =
  let to_pin =
    match entry.Library.cell.Cell.outputs with
    | [ o ] -> o
    | [] | _ :: _ :: _ -> failwith "Mapper: pattern cell must be single-output"
  in
  Library.arc_of entry ~from_pin:pin ~to_pin

(* Penalty modelling the extra load a big input pin puts on its driver. *)
let driver_resistance_estimate = 4e3

type hints = { node_slew : float array; node_load : float array }

type result = {
  netlist : Netlist.t;
  net_of_node : Netlist.net option array;
}

let map ~slew_aware ?hints ~library ~design_name
    ~clock_name subject (boundaries : Decompose.boundaries) =
  let patterns =
    List.filter_map pattern_of_entry (Library.entries library)
  in
  if patterns = [] then failwith "Mapper.map: no mappable cells in library";
  let fanout = Subject.fanout_counts subject in
  let order = Subject.topological subject in
  let n = Subject.size subject in
  let arrival = Array.make n infinity in
  let out_slew = Array.make n est_slew in
  let choice = Array.make n None in
  let hint_load node_id =
    match hints with
    | Some h when h.node_load.(node_id) > 0. -> Some h.node_load.(node_id)
    | Some _ | None -> None
  in
  let hint_slew node_id =
    match hints with
    | Some h when h.node_slew.(node_id) > 0. -> Some h.node_slew.(node_id)
    | Some _ | None -> None
  in
  let eval_candidate node_id p =
    match try_match subject fanout p node_id with
    | None -> None
    | Some leaves ->
      let load =
        match hint_load node_id with
        | Some l -> l
        | None ->
          est_load_base
          +. (est_load_fanout *. float_of_int (max 1 fanout.(node_id)))
      in
      let rec fold_pins acc_arr acc_slew = function
        | [] -> Some (acc_arr, acc_slew)
        | (pin, leaf) :: rest -> begin
          match pin_arc p.entry pin with
          | None -> None (* non-sensitizable pin; cannot estimate *)
          | Some arc ->
            let slew_in =
              match hint_slew leaf with
              | Some s -> s
              | None -> if slew_aware then out_slew.(leaf) else est_slew
            in
            let d =
              Float.max
                (Library.delay_of arc ~dir:Library.Rise ~slew:slew_in ~load)
                (Library.delay_of arc ~dir:Library.Fall ~slew:slew_in ~load)
            in
            let s =
              Float.max
                (Library.out_slew_of arc ~dir:Library.Rise ~slew:slew_in ~load)
                (Library.out_slew_of arc ~dir:Library.Fall ~slew:slew_in ~load)
            in
            let cap_penalty =
              driver_resistance_estimate *. Library.input_cap p.entry pin
            in
            fold_pins
              (Float.max acc_arr (arrival.(leaf) +. d +. cap_penalty))
              (Float.max acc_slew s) rest
        end
      in
      Option.map
        (fun (arr, slw) -> (arr, slw, leaves))
        (fold_pins neg_infinity 0. leaves)
  in
  List.iter
    (fun node_id ->
      match Subject.node subject node_id with
      | Subject.Source _ | Subject.Const _ ->
        arrival.(node_id) <- 0.;
        out_slew.(node_id) <- est_slew
      | Subject.Nand _ | Subject.Inv _ ->
        List.iter
          (fun p ->
            match eval_candidate node_id p with
            | Some (arr, slw, leaves) when arr < arrival.(node_id) ->
              arrival.(node_id) <- arr;
              out_slew.(node_id) <- slw;
              choice.(node_id) <- Some (p, leaves)
            | Some _ | None -> ())
          patterns;
        if choice.(node_id) = None then
          failwith "Mapper.map: uncoverable node (library lacks NAND2/INV?)")
    order;
  (* Cover from the outputs, reconstructing a netlist. *)
  let b = Netlist.Builder.create design_name in
  let has_ffs = boundaries.Decompose.ff_cells <> [] in
  if has_ffs then ignore (Netlist.Builder.clock b clock_name : Netlist.net);
  let net_of = Hashtbl.create 1024 in
  List.iter
    (fun (name, id) ->
      match name with
      | _ when String.length name > 3 && String.sub name 0 3 = "in:" ->
        let port = String.sub name 3 (String.length name - 3) in
        Hashtbl.replace net_of id (Netlist.Builder.input b port)
      | _ -> ())
    (Subject.sources subject);
  let ff_q_nets =
    List.map
      (fun (inst_name, cell_name) ->
        let qnet = Netlist.Builder.fresh_net b in
        (inst_name, (cell_name, qnet)))
      boundaries.Decompose.ff_cells
  in
  List.iter
    (fun (name, id) ->
      match name with
      | _ when String.length name > 4 && String.sub name 0 4 = "ffq:" ->
        let inst_name = String.sub name 4 (String.length name - 4) in
        begin
          match List.assoc_opt inst_name ff_q_nets with
          | Some (_, qnet) -> Hashtbl.replace net_of id qnet
          | None -> failwith ("Mapper.map: unknown flip-flop " ^ inst_name)
        end
      | _ -> ())
    (Subject.sources subject);
  let rec cover id =
    match Hashtbl.find_opt net_of id with
    | Some net -> net
    | None -> begin
      match Subject.node subject id with
      | Subject.Source name -> failwith ("Mapper.map: unbound source " ^ name)
      | Subject.Const _ ->
        failwith "Mapper.map: constant outputs are not supported"
      | Subject.Nand _ | Subject.Inv _ -> begin
        match choice.(id) with
        | None -> failwith "Mapper.map: covering an unchosen node"
        | Some (p, leaves) ->
          let inputs = List.map (fun (pin, leaf) -> (pin, cover leaf)) leaves in
          let net =
            match
              Netlist.Builder.cell b p.entry.Library.indexed_name ~inputs
            with
            | [ net ] -> net
            | [] | _ :: _ :: _ ->
              failwith "Mapper.map: pattern cell must be single-output"
          in
          Hashtbl.replace net_of id net;
          net
      end
    end
  in
  List.iter
    (fun (name, id) ->
      if String.length name > 4 && String.sub name 0 4 = "out:" then begin
        let port = String.sub name 4 (String.length name - 4) in
        Netlist.Builder.output b port (cover id)
      end)
    (Subject.outputs subject);
  List.iter
    (fun (name, id) ->
      if String.length name > 4 && String.sub name 0 4 = "ffd:" then begin
        let inst_name = String.sub name 4 (String.length name - 4) in
        match List.assoc_opt inst_name ff_q_nets with
        | Some (cell_name, qnet) ->
          (* Prefix flip-flop names so they can never collide with the
             freshly numbered combinational instances. *)
          Netlist.Builder.cell_into b ~name:("FF_" ^ inst_name) cell_name
            ~inputs:[ ("D", cover id) ]
            ~outputs:[ ("Q", qnet) ]
        | None -> failwith ("Mapper.map: unknown flip-flop output " ^ inst_name)
      end)
    (Subject.outputs subject);
  let netlist = Netlist.Builder.finish b in
  let net_of_node =
    Array.init n (fun id -> Hashtbl.find_opt net_of id)
  in
  { netlist; net_of_node }
