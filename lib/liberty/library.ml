type timing_sense = Positive | Negative
type direction = Rise | Fall

type arc = {
  from_pin : string;
  to_pin : string;
  sense : timing_sense;
  when_side : (string * bool) list;
  delay_rise : Nldm.table;
  delay_fall : Nldm.table;
  slew_rise : Nldm.table;
  slew_fall : Nldm.table;
}

type entry = {
  cell : Aging_cells.Cell.t;
  indexed_name : string;
  corner : Aging_physics.Scenario.corner;
  arcs : arc list;
  pin_caps : (string * float) list;
  setup_time : float;
}

type t = {
  lib_name : string;
  axes : Axes.t;
  entries : entry list;
  index : (string, entry) Hashtbl.t;
}

let create ~lib_name ~axes entries =
  let index = Hashtbl.create (max 16 (List.length entries)) in
  List.iter
    (fun e ->
      if Hashtbl.mem index e.indexed_name then
        invalid_arg ("Library.create: duplicate " ^ e.indexed_name);
      Hashtbl.add index e.indexed_name e)
    entries;
  { lib_name; axes; entries; index }

let lib_name t = t.lib_name
let axes t = t.axes
let entries t = t.entries
let find t name = Hashtbl.find_opt t.index name

exception Cell_not_found of { library : string; cell : string }
exception Pin_not_found of { cell : string; pin : string }

let () =
  Printexc.register_printer (function
    | Cell_not_found { library; cell } ->
      Some
        (Printf.sprintf "Library.Cell_not_found: no cell %S in library %S"
           cell library)
    | Pin_not_found { cell; pin } ->
      Some
        (Printf.sprintf "Library.Pin_not_found: cell %S has no input pin %S"
           cell pin)
    | _ -> None)

let find_exn t name =
  match find t name with
  | Some e -> e
  | None -> raise (Cell_not_found { library = t.lib_name; cell = name })

let names t = List.map (fun e -> e.indexed_name) t.entries

let arc_of entry ~from_pin ~to_pin =
  List.find_opt
    (fun a -> a.from_pin = from_pin && a.to_pin = to_pin)
    entry.arcs

let delay_of arc ~dir ~slew ~load =
  let table = match dir with Rise -> arc.delay_rise | Fall -> arc.delay_fall in
  Nldm.lookup table ~slew ~load

let out_slew_of arc ~dir ~slew ~load =
  let table = match dir with Rise -> arc.slew_rise | Fall -> arc.slew_fall in
  Nldm.lookup table ~slew ~load

let out_direction arc ~in_dir =
  match (arc.sense, in_dir) with
  | Positive, d -> d
  | Negative, Rise -> Fall
  | Negative, Fall -> Rise

let input_cap entry pin =
  match List.assoc_opt pin entry.pin_caps with
  | Some c -> c
  | None -> raise (Pin_not_found { cell = entry.indexed_name; pin })

let worst_delay entry =
  List.fold_left
    (fun acc a ->
      Float.max acc
        (Float.max (Nldm.max_value a.delay_rise) (Nldm.max_value a.delay_fall)))
    neg_infinity entry.arcs
