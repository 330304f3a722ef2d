module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span

let m_analyses = Metrics.counter "sta.analyses"
let m_updates = Metrics.counter "sta.updates"
let m_arcs = Metrics.counter "sta.arcs_evaluated"
let m_lookups = Metrics.counter "sta.lookups"

(* Counted NLDM accesses: every bilinear interpolation the analysis performs
   goes through these two wrappers. *)
let lookup_delay arc ~dir ~slew ~load =
  Metrics.incr m_lookups;
  Library.delay_of arc ~dir ~slew ~load

let lookup_out_slew arc ~dir ~slew ~load =
  Metrics.incr m_lookups;
  Library.out_slew_of arc ~dir ~slew ~load

type config = {
  input_slew : float;
  clock_slew : float;
  output_load : float;
  wire_cap_per_fanout : float;
}

let default_config =
  {
    input_slew = 2e-11;
    clock_slew = 2e-11;
    output_load = 4e-15;
    wire_cap_per_fanout = 2e-16;
  }

type endpoint =
  | Output_port of string * Netlist.net
  | Flipflop_d of string * Netlist.net

type endpoint_timing = {
  endpoint : endpoint;
  data_arrival : float;
  direction : Library.direction;
  setup : float;
}

let dir_index = function Library.Rise -> 0 | Library.Fall -> 1

let resolve_entry library (inst : Netlist.instance) =
  match Library.find library inst.Netlist.cell_name with
  | Some e -> Some e
  | None -> Library.find library (Netlist.base_cell_name inst.Netlist.cell_name)

let resolve_entry_exn library inst =
  match resolve_entry library inst with
  | Some e -> e
  | None ->
    failwith
      (Printf.sprintf "Timing.analyze: cell %s not in library %s"
         inst.Netlist.cell_name (Library.lib_name library))

type structure = {
  comb_order : int array;       (* indices into netlist.instances *)
  ff_indices : int array;
}

let prepare_structure (netlist : Netlist.t) =
  let ffs = ref [] in
  for i = Array.length netlist.Netlist.instances - 1 downto 0 do
    if Netlist.is_flipflop netlist.Netlist.instances.(i) then ffs := i :: !ffs
  done;
  {
    comb_order = Netlist.combinational_indices netlist;
    ff_indices = Array.of_list !ffs;
  }

(* An instance's cell choice resolved against the library: the capacitance
   of each input pin (in pin order) and the arcs it times, with their nets.
   For a flip-flop the arcs are its CK->Q launches, one per output pin that
   has one; for a combinational cell they are the entry's arcs, in library
   order, whose pins are both connected. *)
type arc_ref = {
  arc : Library.arc;
  from_pos : int;  (* input pin position; -1 for a launch *)
  from_net : Netlist.net;
  to_net : Netlist.net;
}

type inst_timing = {
  caps : float array;
  arcs : arc_ref array;
}

(* Provenance packs an input pin position into four bits. *)
let max_pins = 16

let rec position pin i = function
  | [] -> None
  | (p, net) :: rest -> if p = pin then Some (i, net) else position pin (i + 1) rest

let pin_cap (entry : Library.entry) (inst : Netlist.instance) pin =
  match Library.input_cap entry pin with
  | cap -> cap
  | exception Library.Pin_not_found _ ->
    failwith
      (Printf.sprintf "Timing.analyze: %s (%s) has no pin %s in %s"
         inst.Netlist.inst_name inst.Netlist.cell_name pin
         entry.Library.indexed_name)

let arcs_of ~is_ff (entry : Library.entry) (inst : Netlist.instance) =
  Array.of_list
    (if is_ff then
       List.filter_map
         (fun (pin, to_net) ->
           Option.map
             (fun arc -> { arc; from_pos = -1; from_net = -1; to_net })
             (Library.arc_of entry ~from_pin:"CK" ~to_pin:pin))
         inst.Netlist.outputs
     else
       List.filter_map
         (fun (arc : Library.arc) ->
           match
             ( position arc.Library.from_pin 0 inst.Netlist.inputs,
               List.assoc_opt arc.Library.to_pin inst.Netlist.outputs )
           with
           | Some (from_pos, _), Some _ when from_pos >= max_pins ->
             failwith
               (Printf.sprintf "Timing.analyze: %s has more than %d inputs"
                  inst.Netlist.inst_name max_pins)
           | Some (from_pos, from_net), Some to_net ->
             Some { arc; from_pos; from_net; to_net }
           | None, _ | _, None -> None)
         entry.Library.arcs)

let resolve ~library ~is_ff (inst : Netlist.instance) =
  let entry = resolve_entry_exn library inst in
  {
    caps =
      Array.of_list
        (List.map (fun (pin, _) -> pin_cap entry inst pin) inst.Netlist.inputs);
    arcs = arcs_of ~is_ff entry inst;
  }

(* The timing graph.  [analyze] builds one and evaluates every instance;
   an incremental timer owns one and re-evaluates only what a cell swap
   reaches.  Provenance is packed as (instance, input pin position, input
   edge) = [(inst lsl 5) lor (pos lsl 1) lor edge], -1 at start points. *)
type analysis = {
  structure : structure;
  base : Netlist.t;  (* connectivity and ports; cells are in [insts] *)
  library : Library.t;
  config : config;
  insts : Netlist.instance array;
  loads : float array;
  arr : float array array;     (* arr.(dir).(net); 0 = rise, 1 = fall *)
  min_arr : float array array; (* earliest arrivals, for hold analysis *)
  slews : float array array;
  prov : int array array;
  mutable netlist : Netlist.t option;  (* [insts] as a netlist, built on demand *)
  mutable endpoint_list : endpoint_timing list option;  (* sorted on demand *)
}

let pack_prov inst pos edge = (inst lsl 5) lor (pos lsl 1) lor edge

(* Start state of a driven net: unreachable until its driver is evaluated.
   Nets have a single driver, so evaluating the driver from this state
   yields exactly the value a full pass accumulates. *)
let reset t net =
  t.arr.(0).(net) <- neg_infinity;
  t.arr.(1).(net) <- neg_infinity;
  t.min_arr.(0).(net) <- infinity;
  t.min_arr.(1).(net) <- infinity;
  t.slews.(0).(net) <- t.config.input_slew;
  t.slews.(1).(net) <- t.config.input_slew;
  t.prov.(0).(net) <- -1;
  t.prov.(1).(net) <- -1

(* Flip-flop Q nets launch at clk->q. *)
let launch t (a : arc_ref) dir =
  let i = dir_index dir in
  let q = a.to_net in
  let load = t.loads.(q) in
  let delay = lookup_delay a.arc ~dir ~slew:t.config.clock_slew ~load in
  let out_slew = lookup_out_slew a.arc ~dir ~slew:t.config.clock_slew ~load in
  if delay > t.arr.(i).(q) then begin
    t.arr.(i).(q) <- delay;
    t.slews.(i).(q) <- out_slew
  end;
  if delay < t.min_arr.(i).(q) then t.min_arr.(i).(q) <- delay

let propagate t inst (a : arc_ref) in_dir =
  let ii = dir_index in_dir in
  let in_net = a.from_net in
  let a_in = t.arr.(ii).(in_net) in
  if a_in > neg_infinity then begin
    let out_dir = Library.out_direction a.arc ~in_dir in
    let oi = dir_index out_dir in
    let out_net = a.to_net in
    let slew_in = t.slews.(ii).(in_net) in
    let load = t.loads.(out_net) in
    let delay = lookup_delay a.arc ~dir:out_dir ~slew:slew_in ~load in
    let a_out = a_in +. delay in
    if a_out > t.arr.(oi).(out_net) then begin
      t.arr.(oi).(out_net) <- a_out;
      t.slews.(oi).(out_net) <-
        lookup_out_slew a.arc ~dir:out_dir ~slew:slew_in ~load;
      t.prov.(oi).(out_net) <- pack_prov inst a.from_pos ii
    end;
    let early_in = t.min_arr.(ii).(in_net) in
    if early_in < infinity then begin
      let early = early_in +. delay in
      if early < t.min_arr.(oi).(out_net) then t.min_arr.(oi).(out_net) <- early
    end
  end

(* The one propagation kernel: rebuilds instance [i]'s output nets from the
   start state, arc by arc in library order, Rise before Fall. *)
let eval t ~is_ff i (arcs : arc_ref array) =
  List.iter (fun (_, net) -> reset t net) t.insts.(i).Netlist.outputs;
  if is_ff then
    Array.iter
      (fun a ->
        Metrics.incr m_arcs;
        launch t a Library.Rise;
        launch t a Library.Fall)
      arcs
  else
    Array.iter
      (fun a ->
        Metrics.incr m_arcs;
        propagate t i a Library.Rise;
        propagate t i a Library.Fall)
      arcs

let full_pass ~config ?structure ~library ~insts (netlist : Netlist.t) =
  Span.with_ "sta.analyze"
    ~attrs:[ ("design", netlist.Netlist.design_name) ]
  @@ fun () ->
  Metrics.incr m_analyses;
  let structure =
    match structure with Some s -> s | None -> prepare_structure netlist
  in
  let entries = Array.map (resolve_entry_exn library) insts in
  let n = netlist.Netlist.n_nets in
  let loads = Array.make n 0. in
  Array.iteri
    (fun i (inst : Netlist.instance) ->
      List.iter
        (fun (pin, net) ->
          loads.(net) <-
            loads.(net) +. pin_cap entries.(i) inst pin +. config.wire_cap_per_fanout)
        inst.Netlist.inputs)
    insts;
  List.iter
    (fun (_, net) -> loads.(net) <- loads.(net) +. config.output_load)
    netlist.Netlist.output_ports;
  let t =
    {
      structure;
      base = netlist;
      library;
      config;
      insts;
      loads;
      arr = [| Array.make n neg_infinity; Array.make n neg_infinity |];
      min_arr = [| Array.make n infinity; Array.make n infinity |];
      slews = [| Array.make n config.input_slew; Array.make n config.input_slew |];
      prov = [| Array.make n (-1); Array.make n (-1) |];
      netlist = Some netlist;
      endpoint_list = None;
    }
  in
  (* Start points: primary inputs at t = 0. *)
  List.iter
    (fun (_, net) ->
      t.arr.(0).(net) <- 0.;
      t.arr.(1).(net) <- 0.;
      t.min_arr.(0).(net) <- 0.;
      t.min_arr.(1).(net) <- 0.)
    netlist.Netlist.input_ports;
  (* Arcs are resolved as each instance is evaluated and dropped after: a
     full pass keeps no per-instance timing alive. *)
  let eval_all ~is_ff =
    Array.iter (fun i -> eval t ~is_ff i (arcs_of ~is_ff entries.(i) insts.(i)))
  in
  eval_all ~is_ff:true structure.ff_indices;
  eval_all ~is_ff:false structure.comb_order;
  t

let analyze ?(config = default_config) ?structure ~library
    (netlist : Netlist.t) =
  full_pass ~config ?structure ~library ~insts:netlist.Netlist.instances netlist

let netlist t =
  match t.netlist with
  | Some nl -> nl
  | None ->
    let nl = { t.base with Netlist.instances = Array.copy t.insts } in
    t.netlist <- Some nl;
    nl

let library t = t.library
let config t = t.config
let instance t i = t.insts.(i)
let arrival t net dir = t.arr.(dir_index dir).(net)
let min_arrival t net dir = t.min_arr.(dir_index dir).(net)
let slew_at t net dir = t.slews.(dir_index dir).(net)
let load_on t net = t.loads.(net)

let flipflop_d t i =
  Option.map
    (fun dnet -> (t.insts.(i), dnet))
    (List.assoc_opt "D" t.insts.(i).Netlist.inputs)

(* A simple constant hold requirement per flip-flop: a fraction of its
   setup window (transmission-gate flip-flops hold briefly after the
   edge). *)
let hold_fraction = 0.4

let hold_slacks t =
  List.filter_map
    (fun i ->
      match flipflop_d t i with
      | None -> None
      | Some (inst, dnet) ->
        let earliest =
          Float.min
            (min_arrival t dnet Library.Rise)
            (min_arrival t dnet Library.Fall)
        in
        if earliest = infinity then None
        else
          let hold =
            hold_fraction *. (resolve_entry_exn t.library inst).Library.setup_time
          in
          Some (inst.Netlist.inst_name, earliest -. hold))
    (Array.to_list t.structure.ff_indices)

let worst_hold_slack t =
  List.fold_left (fun acc (_, slack) -> Float.min acc slack) infinity
    (hold_slacks t)

let endpoints t =
  match t.endpoint_list with
  | Some l -> l
  | None ->
    let worst_edge net =
      if t.arr.(0).(net) >= t.arr.(1).(net) then (t.arr.(0).(net), Library.Rise)
      else (t.arr.(1).(net), Library.Fall)
    in
    let po_endpoints =
      List.map
        (fun (name, net) ->
          let data_arrival, direction = worst_edge net in
          { endpoint = Output_port (name, net); data_arrival; direction; setup = 0. })
        t.base.Netlist.output_ports
    in
    let ff_endpoints =
      List.filter_map
        (fun i ->
          Option.map
            (fun ((inst : Netlist.instance), dnet) ->
              let data_arrival, direction = worst_edge dnet in
              {
                endpoint = Flipflop_d (inst.Netlist.inst_name, dnet);
                data_arrival;
                direction;
                setup = (resolve_entry_exn t.library inst).Library.setup_time;
              })
            (flipflop_d t i))
        (Array.to_list t.structure.ff_indices)
    in
    let l =
      List.sort
        (fun a b ->
          compare (b.data_arrival +. b.setup) (a.data_arrival +. a.setup))
        (po_endpoints @ ff_endpoints)
    in
    t.endpoint_list <- Some l;
    l

let min_period t =
  match endpoints t with
  | [] -> 0.
  | worst :: _ -> worst.data_arrival +. worst.setup

let provenance t net dir =
  let p = t.prov.(dir_index dir).(net) in
  if p < 0 then None
  else
    let i = p lsr 5 in
    let pos = (p lsr 1) land (max_pins - 1) in
    let from_pin = fst (List.nth t.insts.(i).Netlist.inputs pos) in
    Some (i, from_pin, if p land 1 = 0 then Library.Rise else Library.Fall)

module Incremental = struct
  module Positions = Set.Make (Int)

  (* Everything a swap overwrites, saved so a rollback restores it without
     propagating again. *)
  type net_state = {
    net : Netlist.net;
    arr_r : float;
    arr_f : float;
    min_r : float;
    min_f : float;
    slew_r : float;
    slew_f : float;
    prov_r : int;
    prov_f : int;
  }

  type undo =
    | Cell of {
        inst : int;
        old : Netlist.instance;
        timing : inst_timing;
        netlist : Netlist.t option;
        endpoints : endpoint_timing list option;
      }
    | Load of Netlist.net * float
    | Net of net_state

  type t = {
    a : analysis;
    timing : inst_timing array;
    rank : int array;         (* instance -> evaluation position *)
    order : int array;        (* evaluation position -> instance *)
    n_ffs : int;              (* positions below are flip-flops *)
    driver : int array;       (* net -> driving instance, or -1 *)
    reader_inst : int array array;  (* net -> readers, instance then pin order *)
    reader_pin : int array array;   (* net -> the readers' pin positions *)
    port_loads : int array;   (* net -> primary outputs it feeds *)
    mutable queue : Positions.t;  (* evaluation positions to re-evaluate *)
    mutable journal : undo list;  (* newest first *)
  }

  let create ?(config = default_config) ~library (netlist : Netlist.t) =
    let a =
      full_pass ~config ~library
        ~insts:(Array.copy netlist.Netlist.instances) netlist
    in
    let n = Array.length a.insts and n_nets = netlist.Netlist.n_nets in
    let order = Array.append a.structure.ff_indices a.structure.comb_order in
    let rank = Array.make n (-1) in
    Array.iteri (fun r i -> rank.(i) <- r) order;
    let n_ffs = Array.length a.structure.ff_indices in
    let timing =
      Array.mapi (fun i inst -> resolve ~library ~is_ff:(rank.(i) < n_ffs) inst) a.insts
    in
    let driver = Array.make n_nets (-1) in
    let fanout = Array.make n_nets 0 in
    Array.iteri
      (fun i (inst : Netlist.instance) ->
        List.iter (fun (_, net) -> driver.(net) <- i) inst.Netlist.outputs;
        List.iter (fun (_, net) -> fanout.(net) <- fanout.(net) + 1) inst.Netlist.inputs)
      a.insts;
    let reader_inst = Array.map (fun k -> Array.make k 0) fanout in
    let reader_pin = Array.map (fun k -> Array.make k 0) fanout in
    Array.fill fanout 0 n_nets 0;
    Array.iteri
      (fun i (inst : Netlist.instance) ->
        List.iteri
          (fun k (_, net) ->
            reader_inst.(net).(fanout.(net)) <- i;
            reader_pin.(net).(fanout.(net)) <- k;
            fanout.(net) <- fanout.(net) + 1)
          inst.Netlist.inputs)
      a.insts;
    let port_loads = Array.make n_nets 0 in
    List.iter
      (fun (_, net) -> port_loads.(net) <- port_loads.(net) + 1)
      netlist.Netlist.output_ports;
    {
      a;
      timing;
      rank;
      order;
      n_ffs;
      driver;
      reader_inst;
      reader_pin;
      port_loads;
      queue = Positions.empty;
      journal = [];
    }

  let analysis t = t.a

  let enqueue t i = t.queue <- Positions.add t.rank.(i) t.queue

  (* The load a full pass computes for [net]: readers in instance, then pin
     order, then the primary outputs — the same summation order, so the
     same bits. *)
  let net_load t net =
    let a = t.a in
    let insts = t.reader_inst.(net) and pins = t.reader_pin.(net) in
    let load = ref 0. in
    for k = 0 to Array.length insts - 1 do
      load :=
        !load +. t.timing.(insts.(k)).caps.(pins.(k))
        +. a.config.wire_cap_per_fanout
    done;
    for _ = 1 to t.port_loads.(net) do
      load := !load +. a.config.output_load
    done;
    !load

  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

  let save a net =
    {
      net;
      arr_r = a.arr.(0).(net);
      arr_f = a.arr.(1).(net);
      min_r = a.min_arr.(0).(net);
      min_f = a.min_arr.(1).(net);
      slew_r = a.slews.(0).(net);
      slew_f = a.slews.(1).(net);
      prov_r = a.prov.(0).(net);
      prov_f = a.prov.(1).(net);
    }

  let restore a s =
    a.arr.(0).(s.net) <- s.arr_r;
    a.arr.(1).(s.net) <- s.arr_f;
    a.min_arr.(0).(s.net) <- s.min_r;
    a.min_arr.(1).(s.net) <- s.min_f;
    a.slews.(0).(s.net) <- s.slew_r;
    a.slews.(1).(s.net) <- s.slew_f;
    a.prov.(0).(s.net) <- s.prov_r;
    a.prov.(1).(s.net) <- s.prov_f

  let unchanged a s =
    let net = s.net in
    same a.arr.(0).(net) s.arr_r
    && same a.arr.(1).(net) s.arr_f
    && same a.min_arr.(0).(net) s.min_r
    && same a.min_arr.(1).(net) s.min_f
    && same a.slews.(0).(net) s.slew_r
    && same a.slews.(1).(net) s.slew_f
    && a.prov.(0).(net) = s.prov_r
    && a.prov.(1).(net) = s.prov_f

  (* Re-evaluate queued instances in evaluation order; an instance whose
     outputs come out bitwise unchanged does not wake its readers.
     Flip-flops only read their D (an endpoint) and CK, so a change never
     reaches through one. *)
  let rec drain t =
    if not (Positions.is_empty t.queue) then begin
      let r = Positions.min_elt t.queue in
      t.queue <- Positions.remove r t.queue;
      let i = t.order.(r) in
      let a = t.a in
      let saved = List.map (fun (_, net) -> save a net) a.insts.(i).Netlist.outputs in
      List.iter (fun s -> t.journal <- Net s :: t.journal) saved;
      eval a ~is_ff:(t.rank.(i) < t.n_ffs) i t.timing.(i).arcs;
      List.iter
        (fun s ->
          if not (unchanged a s) then
            Array.iter
              (fun reader -> if t.rank.(reader) >= t.n_ffs then enqueue t reader)
              t.reader_inst.(s.net))
        saved;
      drain t
    end

  let swap t ~inst:i ~cell =
    Metrics.incr m_updates;
    let a = t.a in
    let old = a.insts.(i) in
    let inst = { old with Netlist.cell_name = cell } in
    let timing = resolve ~library:a.library ~is_ff:(t.rank.(i) < t.n_ffs) inst in
    t.journal <-
      Cell
        {
          inst = i;
          old;
          timing = t.timing.(i);
          netlist = a.netlist;
          endpoints = a.endpoint_list;
        }
      :: t.journal;
    a.insts.(i) <- inst;
    t.timing.(i) <- timing;
    a.netlist <- None;
    a.endpoint_list <- None;
    List.iter
      (fun (_, net) ->
        let load = net_load t net in
        if not (same load a.loads.(net)) then begin
          t.journal <- Load (net, a.loads.(net)) :: t.journal;
          a.loads.(net) <- load;
          if t.driver.(net) >= 0 then enqueue t t.driver.(net)
        end)
      inst.Netlist.inputs;
    enqueue t i;
    drain t

  let rollback t =
    Metrics.incr m_updates;
    let a = t.a in
    List.iter
      (function
        | Cell c ->
          a.insts.(c.inst) <- c.old;
          t.timing.(c.inst) <- c.timing;
          a.netlist <- c.netlist;
          a.endpoint_list <- c.endpoints
        | Load (net, load) -> a.loads.(net) <- load
        | Net s -> restore a s)
      t.journal;
    t.journal <- []

  let commit t = t.journal <- []
end
