module Device = Aging_physics.Device
module Circuit = Aging_spice.Circuit

type kind = Combinational | Flipflop

type built = {
  circuit : Circuit.t;
  input_nodes : (string * Circuit.node) list;
  output_nodes : (string * Circuit.node) list;
}

type t = {
  name : string;
  base : string;
  drive : int;
  inputs : string list;
  outputs : string list;
  logic : bool list -> bool list;
  table : int array;
  kind : kind;
  area : float;
  built : built;
}

type arc = {
  arc_input : string;
  arc_output : string;
  side : (string * bool) list;
  positive_unate : bool;
}

let area_per_width_unit = 1.0e-13
let max_inputs = 6

(* Entry [code] holds the outputs for the input vector whose bit [i] is
   input [i]; bit [k] of the entry is output [k]. *)
let truth_table ~n_inputs logic =
  Array.init (1 lsl n_inputs) (fun code ->
      let bits = ref 0 in
      List.iteri
        (fun k v -> if v then bits := !bits lor (1 lsl k))
        (logic (List.init n_inputs (fun i -> code land (1 lsl i) <> 0)));
      !bits)

let make ~name ~base ~drive ~inputs ~outputs ~logic ~kind ~built =
  let n_inputs = List.length inputs in
  if n_inputs > max_inputs then
    invalid_arg (Printf.sprintf "%s: %d inputs (at most %d)" name n_inputs max_inputs);
  let pins_of assoc = List.map fst assoc in
  if pins_of built.input_nodes <> inputs then
    invalid_arg (name ^ ": input pins do not match built nodes");
  if pins_of built.output_nodes <> outputs then
    invalid_arg (name ^ ": output pins do not match built nodes");
  let area =
    area_per_width_unit *. (Pull.total_width built.circuit /. Device.w_min)
  in
  let table = truth_table ~n_inputs logic in
  { name; base; drive; inputs; outputs; logic; table; kind; area; built }

let eval t values =
  if List.length values <> List.length t.inputs then
    invalid_arg (t.name ^ ": wrong input count");
  t.logic values

(* All assignments of the [n] side inputs, in lexicographic order with
   [false] first. *)
let assignments n =
  let rec go = function
    | 0 -> [ [] ]
    | k -> List.concat_map (fun rest -> [ false :: rest; true :: rest ]) (go (k - 1))
  in
  go n

let combinational_arcs t =
  let out_index o =
    match List.find_index (String.equal o) t.outputs with
    | Some i -> i
    | None -> assert false
  in
  List.concat_map
    (fun input ->
      let side_pins = List.filter (fun p -> p <> input) t.inputs in
      List.filter_map
        (fun output ->
          let oi = out_index output in
          let eval_with in_value side_values =
            let values =
              List.map
                (fun pin ->
                  if pin = input then in_value
                  else List.assoc pin (List.combine side_pins side_values))
                t.inputs
            in
            List.nth (t.logic values) oi
          in
          let rec search = function
            | [] -> None
            | side_values :: rest ->
              let lo = eval_with false side_values in
              let hi = eval_with true side_values in
              if lo <> hi then
                Some
                  {
                    arc_input = input;
                    arc_output = output;
                    side = List.combine side_pins side_values;
                    positive_unate = hi;
                  }
              else search rest
          in
          search (assignments (List.length side_pins)))
        t.outputs)
    t.inputs

let flipflop_arcs t =
  (* CK -> Q launch arcs; the D pin is held at the captured value. *)
  let side_pins = List.filter (fun p -> p <> "CK") t.inputs in
  List.concat_map
    (fun output ->
      List.map
        (fun d_value ->
          {
            arc_input = "CK";
            arc_output = output;
            side = List.map (fun p -> (p, d_value)) side_pins;
            positive_unate = d_value;
          })
        [ true; false ])
    t.outputs

let arcs t =
  match t.kind with
  | Combinational -> combinational_arcs t
  | Flipflop -> flipflop_arcs t

let input_capacitance t pin =
  match List.assoc_opt pin t.built.input_nodes with
  | None -> raise Not_found
  | Some node ->
    (* The node capacitance already accumulates the gate capacitance of the
       transistors the pin drives plus any junction parasitics (e.g. the
       transmission-gate terminal a flip-flop D pin lands on). *)
    Circuit.capacitance t.built.circuit node
