module Library = Aging_liberty.Library
module Nldm = Aging_liberty.Nldm
module Netlist = Aging_netlist.Netlist
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span

let m_analyses = Metrics.counter "sta.analyses"
let m_updates = Metrics.counter "sta.updates"
let m_arcs = Metrics.counter "sta.arcs_evaluated"
let m_lookups = Metrics.counter "sta.lookups"

(* Lookups whose point lies strictly outside the table's axes, by side, in
   the order of [sides]. *)
let sides = [| Nldm.slew_low; Nldm.slew_high; Nldm.load_low; Nldm.load_high |]

let m_extrapolated =
  Array.map
    (fun side -> Metrics.counter ("sta.lookups.extrapolated." ^ side))
    [| "slew_low"; "slew_high"; "load_low"; "load_high" |]

let input_slew = 2e-11
let clock_slew = 2e-11
let output_load = 4e-15
let wire_cap_per_fanout = 2e-16

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

let resolve_entry library cell_name =
  match Library.find library cell_name with
  | Some e -> e
  | None -> (
    match Library.find library (Netlist.base_cell_name cell_name) with
    | Some e -> e
    | None ->
      failwith
        (Printf.sprintf "Timing: cell %s not in library %s" cell_name
           (Library.lib_name library)))

(* Connectivity, independent of the cells chosen.  Each instance's nets sit
   in a small array of their own rather than in one flat array: a structure
   lives for one check, and large short-lived blocks go straight to the
   major heap, where under OCaml 5's GC pacing they raised signoff's peak
   RSS by about a fifth. *)
type structure = {
  comb_order : int array;       (* indices into netlist.instances *)
  ff_indices : int array;
  is_ff : bool array;           (* per instance *)
  nets : int array array;       (* per instance: inputs then outputs, in pin order *)
}

let prepare_structure (netlist : Netlist.t) =
  let insts = netlist.Netlist.instances in
  let is_ff, comb_order = Netlist.levelize netlist in
  let nets =
    Array.map
      (fun (inst : Netlist.instance) ->
        let n_in = List.length inst.Netlist.inputs in
        let a = Array.make (n_in + List.length inst.Netlist.outputs) 0 in
        List.iteri (fun k (_, net) -> a.(k) <- net) inst.Netlist.inputs;
        List.iteri (fun k (_, net) -> a.(n_in + k) <- net) inst.Netlist.outputs;
        a)
      insts
  in
  let ffs = ref [] in
  for i = Array.length insts - 1 downto 0 do
    if is_ff.(i) then ffs := i :: !ffs
  done;
  { comb_order; ff_indices = Array.of_list !ffs; is_ff; nets }

let levelization s = (s.is_ff, s.comb_order)

(* A cell resolved against the library for one pin layout, shared by every
   instance of that cell in a pass: the capacitance of each input pin (in
   pin order) and the arcs it times, with pins as positions so the
   per-instance work only indexes nets.  For a flip-flop the arcs are its
   CK->Q launches, one per output pin that has one; for a combinational
   cell they are the entry's arcs, in library order, whose pins are both
   connected. *)
type cell_timing = {
  entry : Library.entry;
  in_pins : string list;  (* the pin layout it was resolved for *)
  out_pins : string list;
  caps : float array;
  arcs : Library.arc array;
  from_pos : int array;  (* input pin position; -1 for a launch *)
  to_pos : int array;    (* output pin position *)
}

(* Provenance packs an input pin position into four bits. *)
let max_pins = 16

let rec position pin i = function
  | [] -> -1
  | (p, _) :: rest -> if p = pin then i else position pin (i + 1) rest

let resolve_cell ~library ~is_ff (inst : Netlist.instance) =
  let entry = resolve_entry library inst.Netlist.cell_name in
  let caps =
    List.map
      (fun (pin, _) ->
        match Library.input_cap entry pin with
        | cap -> cap
        | exception Library.Pin_not_found _ ->
          failwith
            (Printf.sprintf "Timing.analyze: %s (%s) has no pin %s in %s"
               inst.Netlist.inst_name inst.Netlist.cell_name pin
               entry.Library.indexed_name))
      inst.Netlist.inputs
  in
  let timed =
    if is_ff then
      List.concat
        (List.mapi
           (fun to_pos (pin, _) ->
             match Library.arc_of entry ~from_pin:"CK" ~to_pin:pin with
             | Some arc -> [ (arc, -1, to_pos) ]
             | None -> [])
           inst.Netlist.outputs)
    else
      List.filter_map
        (fun (arc : Library.arc) ->
          match
            ( position arc.Library.from_pin 0 inst.Netlist.inputs,
              position arc.Library.to_pin 0 inst.Netlist.outputs )
          with
          | from_pos, to_pos when from_pos < 0 || to_pos < 0 -> None
          | from_pos, _ when from_pos >= max_pins ->
            failwith
              (Printf.sprintf "Timing.analyze: %s has more than %d inputs"
                 inst.Netlist.inst_name max_pins)
          | from_pos, to_pos -> Some (arc, from_pos, to_pos))
        entry.Library.arcs
  in
  {
    entry;
    in_pins = List.map fst inst.Netlist.inputs;
    out_pins = List.map fst inst.Netlist.outputs;
    caps = Array.of_list caps;
    arcs = Array.of_list (List.map (fun (arc, _, _) -> arc) timed);
    from_pos = Array.of_list (List.map (fun (_, p, _) -> p) timed);
    to_pos = Array.of_list (List.map (fun (_, _, p) -> p) timed);
  }

let rec same_pins names pins =
  match (names, pins) with
  | [], [] -> true
  | name :: names, (pin, _) :: pins ->
    (name == pin || String.equal name pin) && same_pins names pins
  | _ :: _, [] | [], _ :: _ -> false

(* Whether [c] times [inst]: the same cell name (hence the same flip-flop
   kind) is assumed, the same pin layout is checked. *)
let fits c (inst : Netlist.instance) =
  same_pins c.in_pins inst.Netlist.inputs
  && same_pins c.out_pins inst.Netlist.outputs

(* Resolves every instance, once per distinct cell name and pin layout. *)
let resolve_cells ~library structure insts =
  let cells = Hashtbl.create 64 in
  Array.mapi
    (fun i (inst : Netlist.instance) ->
      let is_ff = structure.is_ff.(i) in
      match Hashtbl.find cells inst.Netlist.cell_name with
      | c when fits c inst -> c
      | _ -> resolve_cell ~library ~is_ff inst
      | exception Not_found ->
        let c = resolve_cell ~library ~is_ff inst in
        Hashtbl.add cells inst.Netlist.cell_name c;
        c)
    insts

(* The timing graph.  [analyze] builds one and evaluates every instance;
   an incremental timer owns one and re-evaluates only what a cell swap
   reaches.  Provenance is packed as (instance, input pin position, input
   edge) = [(inst lsl 5) lor (pos lsl 1) lor edge], -1 at start points.
   Edges are indexed 0 = rise, 1 = fall. *)
type analysis = {
  structure : structure;
  base : Netlist.t;  (* connectivity and ports; cells are in [insts] *)
  library : Library.t;
  insts : Netlist.instance array;
  cells : cell_timing array;   (* per instance *)
  loads : float array;
  arr : float array array;     (* arr.(edge).(net) *)
  min_arr : float array array; (* earliest arrivals, for hold analysis *)
  slews : float array array;
  prov : int array array;
  io : float array;  (* the NLDM query and its results, see [Nldm.lookup_pair] *)
  (* Work since the last [flush], published to the metrics then. *)
  mutable lookups : int;
  mutable arcs_evaluated : int;
  extrapolated : int array;  (* lookups, per side in [sides] order *)
  mutable netlist : Netlist.t option;  (* [insts] as a netlist, built on demand *)
  mutable endpoint_list : endpoint_timing list option;  (* sorted on demand *)
}

let flush t =
  Metrics.incr ~by:t.lookups m_lookups;
  Metrics.incr ~by:t.arcs_evaluated m_arcs;
  Array.iteri
    (fun k n -> if n > 0 then Metrics.incr ~by:n m_extrapolated.(k))
    t.extrapolated;
  t.lookups <- 0;
  t.arcs_evaluated <- 0;
  Array.fill t.extrapolated 0 (Array.length sides) 0

(* Counts one lookup; [outside] is its 4-bit side mask. *)
let count t outside =
  t.lookups <- t.lookups + 1;
  if outside land 15 <> 0 then
    for k = 0 to Array.length sides - 1 do
      if outside land sides.(k) <> 0 then
        t.extrapolated.(k) <- t.extrapolated.(k) + 1
    done

(* Delay to [io.(2)] and output slew to [io.(3)] for the output edge
   [edge], at the point already in [io]. *)
let lookup (arc : Library.arc) edge io =
  if edge = 0 then Nldm.lookup_pair arc.Library.delay_rise arc.Library.slew_rise io
  else Nldm.lookup_pair arc.Library.delay_fall arc.Library.slew_fall io

let pack_prov inst pos edge = (inst lsl 5) lor (pos lsl 1) lor edge

(* Start state of a driven net: unreachable until its driver is evaluated.
   Nets have a single driver, so evaluating the driver from this state
   yields exactly the value a full pass accumulates. *)
let reset t net =
  t.arr.(0).(net) <- neg_infinity;
  t.arr.(1).(net) <- neg_infinity;
  t.min_arr.(0).(net) <- infinity;
  t.min_arr.(1).(net) <- infinity;
  t.slews.(0).(net) <- input_slew;
  t.slews.(1).(net) <- input_slew;
  t.prov.(0).(net) <- -1;
  t.prov.(1).(net) <- -1

(* Flip-flop Q nets launch at clk->q. *)
let launch t arc q i =
  let io = t.io in
  io.(0) <- clock_slew;
  io.(1) <- t.loads.(q);
  let outside = lookup arc i io in
  count t outside;
  count t (outside lsr 4);
  let delay = io.(2) in
  if delay > t.arr.(i).(q) then begin
    t.arr.(i).(q) <- delay;
    t.slews.(i).(q) <- io.(3)
  end;
  if delay < t.min_arr.(i).(q) then t.min_arr.(i).(q) <- delay

let propagate t inst pos (arc : Library.arc) in_net out_net ii =
  let a_in = t.arr.(ii).(in_net) in
  if a_in > neg_infinity then begin
    let oi = match arc.Library.sense with Library.Positive -> ii | Library.Negative -> 1 - ii in
    let io = t.io in
    io.(0) <- t.slews.(ii).(in_net);
    io.(1) <- t.loads.(out_net);
    let outside = lookup arc oi io in
    count t outside;
    let delay = io.(2) in
    let a_out = a_in +. delay in
    if a_out > t.arr.(oi).(out_net) then begin
      t.arr.(oi).(out_net) <- a_out;
      t.slews.(oi).(out_net) <- io.(3);
      count t (outside lsr 4);
      t.prov.(oi).(out_net) <- pack_prov inst pos ii
    end;
    let early_in = t.min_arr.(ii).(in_net) in
    if early_in < infinity then begin
      let early = early_in +. delay in
      if early < t.min_arr.(oi).(out_net) then t.min_arr.(oi).(out_net) <- early
    end
  end

(* The one propagation kernel: rebuilds instance [i]'s output nets from the
   start state, arc by arc in library order, rise before fall. *)
let eval t i =
  let nets = t.structure.nets.(i) and c = t.cells.(i) in
  let outs = Array.length c.caps in
  for k = outs to Array.length nets - 1 do
    reset t nets.(k)
  done;
  let arcs = c.arcs in
  for k = 0 to Array.length arcs - 1 do
    let out_net = nets.(outs + c.to_pos.(k)) in
    let pos = c.from_pos.(k) in
    if pos < 0 then begin
      launch t arcs.(k) out_net 0;
      launch t arcs.(k) out_net 1
    end
    else begin
      let in_net = nets.(pos) in
      propagate t i pos arcs.(k) in_net out_net 0;
      propagate t i pos arcs.(k) in_net out_net 1
    end
  done;
  t.arcs_evaluated <- t.arcs_evaluated + Array.length arcs

let full_pass ?structure ~library ~insts (netlist : Netlist.t) =
  Span.with_ "sta.analyze"
    ~attrs:[ ("design", netlist.Netlist.design_name) ]
  @@ fun () ->
  Metrics.incr m_analyses;
  let structure =
    match structure with Some s -> s | None -> prepare_structure netlist
  in
  let cells = resolve_cells ~library structure insts in
  let n = netlist.Netlist.n_nets in
  let loads = Array.make n 0. in
  Array.iteri
    (fun i c ->
      let nets = structure.nets.(i) in
      for k = 0 to Array.length c.caps - 1 do
        let net = nets.(k) in
        loads.(net) <- loads.(net) +. c.caps.(k) +. wire_cap_per_fanout
      done)
    cells;
  List.iter
    (fun (_, net) -> loads.(net) <- loads.(net) +. output_load)
    netlist.Netlist.output_ports;
  let t =
    {
      structure;
      base = netlist;
      library;
      insts;
      cells;
      loads;
      arr = [| Array.make n neg_infinity; Array.make n neg_infinity |];
      min_arr = [| Array.make n infinity; Array.make n infinity |];
      slews = [| Array.make n input_slew; Array.make n input_slew |];
      prov = [| Array.make n (-1); Array.make n (-1) |];
      io = Array.make 4 0.;
      lookups = 0;
      arcs_evaluated = 0;
      extrapolated = Array.make (Array.length sides) 0;
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
  Array.iter (eval t) structure.ff_indices;
  Array.iter (eval t) structure.comb_order;
  flush t;
  t

let analyze ?structure ~library (netlist : Netlist.t) =
  full_pass ?structure ~library ~insts:netlist.Netlist.instances netlist

let netlist t =
  match t.netlist with
  | Some nl -> nl
  | None ->
    let nl = { t.base with Netlist.instances = Array.copy t.insts } in
    t.netlist <- Some nl;
    nl

let library t = t.library
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
            hold_fraction *. t.cells.(i).entry.Library.setup_time
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
                setup = t.cells.(i).entry.Library.setup_time;
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
        cell : cell_timing;
        netlist : Netlist.t option;
        endpoints : endpoint_timing list option;
      }
    | Load of Netlist.net * float
    | Net of net_state

  type t = {
    a : analysis;
    rank : int array;         (* instance -> evaluation position *)
    order : int array;        (* evaluation position -> instance *)
    driver : int array;       (* net -> driving instance, or -1 *)
    reader_inst : int array array;  (* net -> readers, instance then pin order *)
    reader_pin : int array array;   (* net -> the readers' pin positions *)
    port_loads : int array;   (* net -> primary outputs it feeds *)
    mutable queue : Positions.t;  (* evaluation positions to re-evaluate *)
    mutable journal : undo list;  (* newest first *)
  }

  let create ~library (netlist : Netlist.t) =
    let a =
      full_pass ~library
        ~insts:(Array.copy netlist.Netlist.instances) netlist
    in
    let s = a.structure in
    let n = Array.length a.insts and n_nets = netlist.Netlist.n_nets in
    let order = Array.append s.ff_indices s.comb_order in
    let rank = Array.make n (-1) in
    Array.iteri (fun r i -> rank.(i) <- r) order;
    let driver = Array.make n_nets (-1) in
    let fanout = Array.make n_nets 0 in
    let n_inputs i = Array.length a.cells.(i).caps in
    for i = 0 to n - 1 do
      for k = n_inputs i to Array.length s.nets.(i) - 1 do
        driver.(s.nets.(i).(k)) <- i
      done
    done;
    let iter_inputs f =
      for i = 0 to n - 1 do
        for k = 0 to n_inputs i - 1 do
          f i k s.nets.(i).(k)
        done
      done
    in
    iter_inputs (fun _ _ net -> fanout.(net) <- fanout.(net) + 1);
    let reader_inst = Array.map (fun k -> Array.make k 0) fanout in
    let reader_pin = Array.map (fun k -> Array.make k 0) fanout in
    Array.fill fanout 0 n_nets 0;
    iter_inputs (fun i pos net ->
        reader_inst.(net).(fanout.(net)) <- i;
        reader_pin.(net).(fanout.(net)) <- pos;
        fanout.(net) <- fanout.(net) + 1);
    let port_loads = Array.make n_nets 0 in
    List.iter
      (fun (_, net) -> port_loads.(net) <- port_loads.(net) + 1)
      netlist.Netlist.output_ports;
    {
      a;
      rank;
      order;
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
        !load +. a.cells.(insts.(k)).caps.(pins.(k))
        +. wire_cap_per_fanout
    done;
    for _ = 1 to t.port_loads.(net) do
      load := !load +. output_load
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
      let s = a.structure in
      let nets = s.nets.(i) and outs = Array.length a.cells.(i).caps in
      let saved =
        List.init (Array.length nets - outs) (fun k -> save a nets.(outs + k))
      in
      List.iter (fun s -> t.journal <- Net s :: t.journal) saved;
      eval a i;
      List.iter
        (fun saved ->
          if not (unchanged a saved) then
            Array.iter
              (fun reader -> if not s.is_ff.(reader) then enqueue t reader)
              t.reader_inst.(saved.net))
        saved;
      drain t
    end

  let swap t ~inst:i ~cell =
    Metrics.incr m_updates;
    let a = t.a in
    let old = a.insts.(i) in
    let inst = { old with Netlist.cell_name = cell } in
    let timing =
      resolve_cell ~library:a.library ~is_ff:a.structure.is_ff.(i) inst
    in
    t.journal <-
      Cell
        {
          inst = i;
          old;
          cell = a.cells.(i);
          netlist = a.netlist;
          endpoints = a.endpoint_list;
        }
      :: t.journal;
    a.insts.(i) <- inst;
    a.cells.(i) <- timing;
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
    drain t;
    flush a

  let rollback t =
    Metrics.incr m_updates;
    let a = t.a in
    List.iter
      (function
        | Cell c ->
          a.insts.(c.inst) <- c.old;
          a.cells.(c.inst) <- c.cell;
          a.netlist <- c.netlist;
          a.endpoint_list <- c.endpoints
        | Load (net, load) -> a.loads.(net) <- load
        | Net s -> restore a s)
      t.journal;
    t.journal <- []

  let commit t = t.journal <- []
end
