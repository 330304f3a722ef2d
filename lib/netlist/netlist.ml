module Cell = Aging_cells.Cell
module Catalog = Aging_cells.Catalog

type net = int

type instance = {
  inst_name : string;
  cell_name : string;
  inputs : (string * net) list;
  outputs : (string * net) list;
}

type t = {
  design_name : string;
  n_nets : int;
  instances : instance array;
  input_ports : (string * net) list;
  output_ports : (string * net) list;
  clock : net option;
}

let base_cell_name name =
  match String.index_opt name '@' with
  | None -> name
  | Some i -> String.sub name 0 i

let catalog_cell inst =
  let base = base_cell_name inst.cell_name in
  match Catalog.find base with
  | Some c -> c
  | None -> failwith ("Netlist: unknown cell " ^ inst.cell_name)

let is_flipflop inst = (catalog_cell inst).Cell.kind = Cell.Flipflop

module Builder = struct
  type netlist = t

  type b = {
    name : string;
    mutable next_net : int;
    mutable next_inst : int;
    mutable rev_instances : instance list;
    mutable rev_inputs : (string * net) list;
    mutable rev_outputs : (string * net) list;
    mutable clk : (string * net) option;
  }

  let create name =
    {
      name;
      next_net = 0;
      next_inst = 0;
      rev_instances = [];
      rev_inputs = [];
      rev_outputs = [];
      clk = None;
    }

  let fresh_net b =
    let n = b.next_net in
    b.next_net <- n + 1;
    n

  let input b port_name =
    let n = fresh_net b in
    b.rev_inputs <- (port_name, n) :: b.rev_inputs;
    n

  let output b port_name net = b.rev_outputs <- (port_name, net) :: b.rev_outputs

  let clock b port_name =
    match b.clk with
    | Some _ -> invalid_arg "Builder.clock: clock already declared"
    | None ->
      let n = fresh_net b in
      b.clk <- Some (port_name, n);
      n

  let add_instance b ?name cell_name ~inputs ~mk_outputs =
    let catalog_cell =
      match Catalog.find (base_cell_name cell_name) with
      | Some c -> c
      | None -> failwith ("Builder.cell: unknown cell " ^ cell_name)
    in
    let is_ff = catalog_cell.Cell.kind = Cell.Flipflop in
    let resolve pin =
      if is_ff && pin = "CK" then begin
        match b.clk with
        | Some (_, n) -> n
        | None -> failwith "Builder.cell: flip-flop before clock declaration"
      end
      else
        match List.assoc_opt pin inputs with
        | Some n -> n
        | None ->
          failwith
            (Printf.sprintf "Builder.cell: %s missing input pin %s" cell_name pin)
    in
    let conns_in = List.map (fun pin -> (pin, resolve pin)) catalog_cell.Cell.inputs in
    List.iter
      (fun (pin, _) ->
        if not (List.mem pin catalog_cell.Cell.inputs) then
          failwith (Printf.sprintf "Builder.cell: %s has no pin %s" cell_name pin))
      inputs;
    let conns_out = mk_outputs catalog_cell in
    let inst_name =
      match name with
      | Some n -> n
      | None ->
        b.next_inst <- b.next_inst + 1;
        Printf.sprintf "U%d" b.next_inst
    in
    b.rev_instances <-
      { inst_name; cell_name; inputs = conns_in; outputs = conns_out }
      :: b.rev_instances;
    List.map snd conns_out

  let cell b ?name cell_name ~inputs =
    add_instance b ?name cell_name ~inputs ~mk_outputs:(fun catalog_cell ->
        List.map (fun pin -> (pin, fresh_net b)) catalog_cell.Cell.outputs)

  let cell_into b ?name cell_name ~inputs ~outputs =
    let (_ : net list) =
      add_instance b ?name cell_name ~inputs ~mk_outputs:(fun catalog_cell ->
          List.map
            (fun pin ->
              match List.assoc_opt pin outputs with
              | Some n -> (pin, n)
              | None ->
                failwith
                  (Printf.sprintf "Builder.cell_into: %s missing output pin %s"
                     cell_name pin))
            catalog_cell.Cell.outputs)
    in
    ()

  let finish b =
    let instances = Array.of_list (List.rev b.rev_instances) in
    let names = Hashtbl.create (Array.length instances) in
    Array.iter
      (fun inst ->
        if Hashtbl.mem names inst.inst_name then
          failwith ("Builder.finish: duplicate instance name " ^ inst.inst_name);
        Hashtbl.add names inst.inst_name ())
      instances;
    let drivers = Array.make b.next_net 0 in
    Array.iter
      (fun inst ->
        List.iter (fun (_, n) -> drivers.(n) <- drivers.(n) + 1) inst.outputs)
      instances;
    List.iter
      (fun (_, n) -> drivers.(n) <- drivers.(n) + 1)
      (b.rev_inputs @ Option.to_list b.clk);
    Array.iteri
      (fun n count ->
        if count > 1 then
          failwith (Printf.sprintf "Builder.finish: net %d has %d drivers" n count))
      drivers;
    {
      design_name = b.name;
      n_nets = b.next_net;
      instances;
      input_ports = List.rev b.rev_inputs;
      output_ports = List.rev b.rev_outputs;
      clock = Option.map snd b.clk;
    }
end

let flipflops t =
  Array.to_list (Array.of_seq (Seq.filter is_flipflop (Array.to_seq t.instances)))

let combinational_indices t =
  let driver = Hashtbl.create (t.n_nets * 2) in
  Array.iteri
    (fun idx inst ->
      List.iter (fun (_, n) -> Hashtbl.replace driver n idx) inst.outputs)
    t.instances;
  let comb = Array.map (fun inst -> not (is_flipflop inst)) t.instances in
  (* In-degree of each combinational instance counted over nets driven by
     other combinational instances. *)
  let indegree = Array.make (Array.length t.instances) 0 in
  let dependents = Array.make (Array.length t.instances) [] in
  Array.iteri
    (fun idx inst ->
      if comb.(idx) then
        List.iter
          (fun (_, n) ->
            match Hashtbl.find_opt driver n with
            | Some d when comb.(d) ->
              indegree.(idx) <- indegree.(idx) + 1;
              dependents.(d) <- idx :: dependents.(d)
            | Some _ | None -> ())
          inst.inputs)
    t.instances;
  let queue = Queue.create () in
  Array.iteri
    (fun idx _ -> if comb.(idx) && indegree.(idx) = 0 then Queue.add idx queue)
    t.instances;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let idx = Queue.pop queue in
    order := idx :: !order;
    incr seen;
    List.iter
      (fun d ->
        indegree.(d) <- indegree.(d) - 1;
        if indegree.(d) = 0 then Queue.add d queue)
      dependents.(idx)
  done;
  let total_comb = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 comb in
  if !seen <> total_comb then
    failwith ("Netlist.combinational_order: combinational cycle in " ^ t.design_name);
  Array.of_list (List.rev !order)

let combinational_order t =
  Array.to_list (Array.map (fun idx -> t.instances.(idx)) (combinational_indices t))

let driver_of t net =
  let found = ref None in
  Array.iter
    (fun inst ->
      List.iter (fun (pin, n) -> if n = net then found := Some (inst, pin)) inst.outputs)
    t.instances;
  !found

let fanout_of t net =
  Array.fold_left
    (fun acc inst ->
      List.fold_left
        (fun acc (pin, n) -> if n = net then (inst, pin) :: acc else acc)
        acc inst.inputs)
    [] t.instances
  |> List.rev

let area t =
  Array.fold_left
    (fun acc inst -> acc +. (catalog_cell inst).Cell.area)
    0. t.instances

let count_cells t =
  let table = Hashtbl.create 32 in
  Array.iter
    (fun inst ->
      let base = base_cell_name inst.cell_name in
      Hashtbl.replace table base
        (1 + Option.value (Hashtbl.find_opt table base) ~default:0))
    t.instances;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let rename_cells f t =
  {
    t with
    instances =
      Array.map (fun inst -> { inst with cell_name = f inst }) t.instances;
  }

type state = bool array

let initial_state t = Array.make (List.length (flipflops t)) false

type compiled = {
  netlist : t;
  (* Combinational instances in topological order, with resolved logic and
     net indices. *)
  steps : (bool list -> bool list) array;
  step_inputs : int array array;
  step_outputs : int array array;
  ff_q : int array;  (* output net per flip-flop *)
  ff_d : int array;  (* D net per flip-flop *)
}

let compile t =
  let order = Array.of_list (combinational_order t) in
  let steps = Array.map (fun inst -> (catalog_cell inst).Cell.logic) order in
  let step_inputs =
    Array.map (fun inst -> Array.of_list (List.map snd inst.inputs)) order
  in
  let step_outputs =
    Array.map (fun inst -> Array.of_list (List.map snd inst.outputs)) order
  in
  let ffs = flipflops t in
  let ff_q =
    Array.of_list
      (List.map
         (fun inst ->
           match inst.outputs with
           | [ (_, q) ] -> q
           | [] | _ :: _ :: _ ->
             failwith "Netlist.compile: flip-flop must have exactly one output")
         ffs)
  in
  let ff_d =
    Array.of_list
      (List.map
         (fun inst ->
           match List.assoc_opt "D" inst.inputs with
           | Some d -> d
           | None -> failwith "Netlist.compile: flip-flop without D pin")
         ffs)
  in
  { netlist = t; steps; step_inputs; step_outputs; ff_q; ff_d }

let compiled_net_values c state ~inputs =
  let t = c.netlist in
  let values = Array.make t.n_nets false in
  List.iter
    (fun (port, net) ->
      match List.assoc_opt port inputs with
      | Some v -> values.(net) <- v
      | None -> failwith ("Netlist.eval: missing input " ^ port))
    t.input_ports;
  Array.iteri (fun i q -> values.(q) <- state.(i)) c.ff_q;
  Array.iteri
    (fun k logic ->
      let in_values =
        Array.to_list (Array.map (fun n -> values.(n)) c.step_inputs.(k))
      in
      let out_values = logic in_values in
      List.iteri
        (fun oi v -> values.(c.step_outputs.(k).(oi)) <- v)
        out_values)
    c.steps;
  values

let next_state_of_values c values = Array.map (fun d -> values.(d)) c.ff_d

let compiled_cycle c state ~inputs =
  let values = compiled_net_values c state ~inputs in
  let next = next_state_of_values c values in
  let outs =
    List.map (fun (port, n) -> (port, values.(n))) c.netlist.output_ports
  in
  (outs, next)

let net_values t state ~inputs = compiled_net_values (compile t) state ~inputs

let eval_cycle t state ~inputs = compiled_cycle (compile t) state ~inputs

let eval_combinational t ~inputs =
  if flipflops t <> [] then
    invalid_arg "Netlist.eval_combinational: netlist has flip-flops";
  fst (eval_cycle t (initial_state t) ~inputs)
