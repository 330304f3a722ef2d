module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Timing = Aging_sta.Timing

(* --------------------------- event heap --------------------------- *)

(* Binary min-heap ordered by (time, push order) over parallel arrays.  An
   event is [2 * net + value] for a net change and [-(ff + 1)] for a
   flip-flop sample; its push sequence number doubles as the inertial-
   cancellation stamp.  Push and pop are inlined into the kernel, so no
   event allocates. *)
type heap = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable events : int array;
  mutable size : int;
  mutable next_seq : int;
}

let heap_create () =
  {
    keys = Array.make 256 0.;
    seqs = Array.make 256 0;
    events = Array.make 256 0;
    size = 0;
    next_seq = 0;
  }

let heap_grow h =
  let n = 2 * h.size in
  let keys = Array.make n 0. and seqs = Array.make n 0 and events = Array.make n 0 in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.events 0 events 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.events <- events

(* Pushes an event and returns its sequence number.  The new event has the
   largest sequence number, so it rises past strictly later keys only. *)
let[@inline] heap_push h key event =
  if h.size = Array.length h.keys then heap_grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && key < h.keys.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    h.keys.(!i) <- h.keys.(p);
    h.seqs.(!i) <- h.seqs.(p);
    h.events.(!i) <- h.events.(p);
    i := p
  done;
  h.keys.(!i) <- key;
  h.seqs.(!i) <- seq;
  h.events.(!i) <- event;
  seq

(* Removes the minimum: the last element sinks from the root, trading
   places with the smaller child while that child orders first. *)
let[@inline] heap_drop_min h =
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let key = h.keys.(n) and seq = h.seqs.(n) and event = h.events.(n) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = ref !i and sk = ref key and ss = ref seq in
      if l < n && (h.keys.(l) < !sk || (h.keys.(l) = !sk && h.seqs.(l) < !ss)) then begin
        s := l;
        sk := h.keys.(l);
        ss := h.seqs.(l)
      end;
      if r < n && (h.keys.(r) < !sk || (h.keys.(r) = !sk && h.seqs.(r) < !ss)) then
        s := r;
      if !s = !i then sinking := false
      else begin
        h.keys.(!i) <- h.keys.(!s);
        h.seqs.(!i) <- h.seqs.(!s);
        h.events.(!i) <- h.events.(!s);
        i := !s
      end
    done;
    h.keys.(!i) <- key;
    h.seqs.(!i) <- seq;
    h.events.(!i) <- event
  end

(* ------------------------------ model ------------------------------ *)

type t = {
  netlist : Netlist.t;
  analysis : Timing.analysis;
  compiled : Netlist.compiled;
      (* the zero-delay reference; its steps are the simulated gates *)
  (* Fanout in CSR form: a change on net [n] re-evaluates the steps
     [edge_gate.(e)] for [e] in [edge_start.(n)] .. [edge_start.(n + 1) - 1].
     From [delay_start.(e)], [edge_delay] holds per output of that step the
     propagation delay when net [n] triggers it, rise then fall. *)
  edge_start : int array;
  edge_gate : int array;
  delay_start : int array;
  edge_delay : float array;
  (* Per flip-flop, in [Netlist.flipflops] order. *)
  ff_setup : float array;
  clkq_rise : float array;
  clkq_fall : float array;
}

let dir_rise = 0
let dir_fall = 1

let prepare ~library netlist =
  let structure = Timing.prepare_structure netlist in
  let analysis = Timing.analyze ~structure ~library netlist in
  let compiled =
    Netlist.compile_levelized netlist (Timing.levelization structure)
  in
  (* delay.(pin).(out).(dir): propagation delay when input [pin] triggers a
     transition of output [out]. *)
  let gate_delays inst =
    let entry = Timing.resolve_entry library inst.Netlist.cell_name in
    let in_nets = Array.of_list (List.map snd inst.Netlist.inputs) in
    let out_nets = Array.of_list (List.map snd inst.Netlist.outputs) in
    let pins = Array.of_list (List.map fst inst.Netlist.inputs) in
    let out_pins = Array.of_list (List.map fst inst.Netlist.outputs) in
    let delay =
      Array.init (Array.length pins) (fun pi ->
          Array.init (Array.length out_pins) (fun oi ->
              let in_net = in_nets.(pi) in
              let slew =
                Float.max
                  (Timing.slew_at analysis in_net Library.Rise)
                  (Timing.slew_at analysis in_net Library.Fall)
              in
              let load = Timing.load_on analysis out_nets.(oi) in
              match
                Library.arc_of entry ~from_pin:pins.(pi) ~to_pin:out_pins.(oi)
              with
              | Some arc ->
                [|
                  Library.delay_of arc ~dir:Library.Rise ~slew ~load;
                  Library.delay_of arc ~dir:Library.Fall ~slew ~load;
                |]
              | None -> [| nan; nan |]))
    in
    (* Fill non-sensitizable (pin,out) pairs with the worst delay of the
       output so logic-only sensitizations still propagate. *)
    let n_outs = Array.length out_pins in
    for oi = 0 to n_outs - 1 do
      let worst = ref 0. in
      Array.iter
        (fun per_out ->
          let d = per_out.(oi) in
          if not (Float.is_nan d.(0)) then begin
            worst := Float.max !worst d.(0);
            worst := Float.max !worst d.(1)
          end)
        delay;
      Array.iter
        (fun per_out ->
          let d = per_out.(oi) in
          if Float.is_nan d.(0) then begin
            d.(0) <- !worst;
            d.(1) <- !worst
          end)
        delay
    done;
    delay
  in
  let steps = compiled.Netlist.order in
  let delays =
    Array.map (fun idx -> gate_delays netlist.Netlist.instances.(idx)) steps
  in
  let step_inputs = compiled.Netlist.step_inputs in
  let n_outs g = Array.length compiled.Netlist.step_outputs.(g) in
  (* Each step is an edge of every distinct net it reads; a net's edges run
     from the last step to the first. *)
  let distinct ins pi =
    let rec fresh j = j = pi || (ins.(j) <> ins.(pi) && fresh (j + 1)) in
    fresh 0
  in
  let n_nets = netlist.Netlist.n_nets in
  let edge_start = Array.make (n_nets + 1) 0 in
  Array.iter
    (fun ins ->
      Array.iteri
        (fun pi net ->
          if distinct ins pi then edge_start.(net + 1) <- edge_start.(net + 1) + 1)
        ins)
    step_inputs;
  for net = 1 to n_nets do
    edge_start.(net) <- edge_start.(net) + edge_start.(net - 1)
  done;
  let n_edges = edge_start.(n_nets) in
  let edge_gate = Array.make n_edges 0 in
  let fill = Array.sub edge_start 0 n_nets in
  for g = Array.length steps - 1 downto 0 do
    let ins = step_inputs.(g) in
    Array.iteri
      (fun pi net ->
        if distinct ins pi then begin
          edge_gate.(fill.(net)) <- g;
          fill.(net) <- fill.(net) + 1
        end)
      ins
  done;
  let delay_start = Array.make (n_edges + 1) 0 in
  for e = 0 to n_edges - 1 do
    delay_start.(e + 1) <- delay_start.(e) + (2 * n_outs edge_gate.(e))
  done;
  (* The worst delay over the pins the triggering net feeds. *)
  let edge_delay = Array.make delay_start.(n_edges) 0. in
  for net = 0 to n_nets - 1 do
    for e = edge_start.(net) to edge_start.(net + 1) - 1 do
      let g = edge_gate.(e) in
      for oi = 0 to n_outs g - 1 do
        List.iter
          (fun dir ->
            let d = ref neg_infinity in
            Array.iteri
              (fun pi per_out ->
                if step_inputs.(g).(pi) = net then d := Float.max !d per_out.(oi).(dir))
              delays.(g);
            edge_delay.(delay_start.(e) + (2 * oi) + dir) <-
              (if Float.is_finite !d then !d else 0.))
          [ dir_rise; dir_fall ]
      done
    done
  done;
  let ffs = Array.of_list (Netlist.flipflops netlist) in
  let clkq dir =
    Array.mapi
      (fun fi inst ->
        let entry = Timing.resolve_entry library inst.Netlist.cell_name in
        match Library.arc_of entry ~from_pin:"CK" ~to_pin:"Q" with
        | Some arc ->
          Library.delay_of arc ~dir ~slew:Timing.clock_slew
            ~load:(Timing.load_on analysis compiled.Netlist.ff_q.(fi))
        | None -> 0.)
      ffs
  in
  {
    netlist;
    analysis;
    compiled;
    edge_start;
    edge_gate;
    delay_start;
    edge_delay;
    ff_setup =
      Array.map
        (fun (inst : Netlist.instance) ->
          (Timing.resolve_entry library inst.Netlist.cell_name).Library.setup_time)
        ffs;
    clkq_rise = clkq Library.Rise;
    clkq_fall = clkq Library.Fall;
  }

let min_period t = Timing.min_period t.analysis
let design t = t.netlist

type trace = {
  outputs : (string * bool) list array;
  timing_errors : int;
}

let run_functional netlist ~cycles ~stimulus =
  let compiled = Netlist.compile netlist in
  let state = ref (Netlist.initial_state netlist) in
  Array.init cycles (fun n ->
      let outs, next = Netlist.compiled_cycle compiled !state ~inputs:(stimulus n) in
      state := next;
      outs)

(* ------------------------------ kernel ----------------------------- *)

type state = {
  heap : heap;
  values : bool array;  (* current value per net *)
  target : bool array;  (* value per net once its pending events settle *)
  latest : int array;   (* sequence number of the net's latest change *)
  captured : bool array;  (* per flip-flop, the last sampled D *)
}

let[@inline] schedule st time net value =
  st.latest.(net) <- heap_push st.heap time ((2 * net) + Bool.to_int value);
  st.target.(net) <- value

(* Processes every event due by [limit].  A net change applies only if no
   later change of the net was scheduled since (inertial delay); it then
   re-evaluates the steps the net feeds and schedules their outputs that
   move away from their pending value. *)
let drain t st limit =
  let h = st.heap and values = st.values and target = st.target in
  let c = t.compiled in
  while h.size > 0 && h.keys.(0) <= limit do
    let time = h.keys.(0) and seq = h.seqs.(0) and event = h.events.(0) in
    heap_drop_min h;
    if event < 0 then begin
      let fi = -event - 1 in
      st.captured.(fi) <- values.(c.Netlist.ff_d.(fi))
    end
    else begin
      let net = event lsr 1 and value = event land 1 = 1 in
      if seq = st.latest.(net) && values.(net) <> value then begin
        values.(net) <- value;
        for e = t.edge_start.(net) to t.edge_start.(net + 1) - 1 do
          let g = t.edge_gate.(e) in
          let ins = c.Netlist.step_inputs.(g) and outs = c.Netlist.step_outputs.(g) in
          let code = ref 0 in
          for i = Array.length ins - 1 downto 0 do
            code := (!code lsl 1) lor Bool.to_int values.(ins.(i))
          done;
          let bits = c.Netlist.tables.(g).(!code) in
          for o = 0 to Array.length outs - 1 do
            let v = (bits lsr o) land 1 = 1 and out = outs.(o) in
            if v <> target.(out) then begin
              let dir = if v then dir_rise else dir_fall in
              let d = t.edge_delay.(t.delay_start.(e) + (2 * o) + dir) in
              schedule st (time +. d) out v
            end
          done
        done
      end
    end
  done

let run t ~period ~cycles ~stimulus =
  if period <= 0. then invalid_arg "Event_sim.run: period <= 0";
  if cycles < 0 then invalid_arg "Event_sim.run: negative cycles";
  let netlist = t.netlist and c = t.compiled in
  (* Start in the settled state of the first input vector. *)
  let first_inputs = stimulus 0 in
  let init_state = Netlist.initial_state netlist in
  let values = Netlist.compiled_net_values c init_state ~inputs:first_inputs in
  let st =
    {
      heap = heap_create ();
      values;
      target = Array.copy values;
      latest = Array.make netlist.Netlist.n_nets (-1);
      captured = Array.copy init_state;
    }
  in
  let n_ffs = Array.length c.Netlist.ff_q in
  let q_values = Array.map (fun q -> values.(q)) c.Netlist.ff_q in
  (* Reference (zero-delay) execution to count timing errors. *)
  let ref_state = ref init_state in
  let timing_errors = ref 0 in
  let outputs = Array.make cycles [] in
  for cycle = 0 to cycles - 1 do
    let t_edge = float_of_int (cycle + 1) *. period in
    (* Schedule the D sampling points of this edge. *)
    for fi = 0 to n_ffs - 1 do
      ignore (heap_push st.heap (t_edge -. t.ff_setup.(fi)) (-(fi + 1)) : int)
    done;
    (* Apply this cycle's inputs just after the previous edge. *)
    let inputs = if cycle = 0 then first_inputs else stimulus cycle in
    let t_inputs = (float_of_int cycle *. period) +. 1e-15 in
    List.iter
      (fun (port, value) ->
        match Hashtbl.find c.Netlist.port_index port with
        | i ->
          let net = c.Netlist.port_net.(i) in
          if st.target.(net) <> value then schedule st t_inputs net value
        | exception Not_found -> failwith ("Event_sim.run: unknown input " ^ port))
      inputs;
    drain t st t_edge;
    (* Record primary outputs as seen by the capturing edge. *)
    outputs.(cycle) <-
      List.map (fun (port, net) -> (port, values.(net))) netlist.Netlist.output_ports;
    let ref_next =
      Netlist.next_state_of_values c
        (Netlist.compiled_net_values c !ref_state ~inputs)
    in
    (* Captures become visible on Q after clk->q. *)
    for fi = 0 to n_ffs - 1 do
      let captured = st.captured.(fi) in
      if captured <> ref_next.(fi) then incr timing_errors;
      if captured <> q_values.(fi) then begin
        q_values.(fi) <- captured;
        let d = if captured then t.clkq_rise.(fi) else t.clkq_fall.(fi) in
        schedule st (t_edge +. d) c.Netlist.ff_q.(fi) captured
      end
    done;
    ref_state := ref_next
  done;
  { outputs; timing_errors = !timing_errors }
