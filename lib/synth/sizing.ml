module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Cell = Aging_cells.Cell
module Timing = Aging_sta.Timing
module Paths = Aging_sta.Paths

let family_variants library base =
  List.filter
    (fun (e : Library.entry) -> e.Library.cell.Cell.base = base)
    (Library.entries library)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* Objective: worst endpoint first, then the total lateness of all
   endpoints inside a near-critical window below it.  The second component
   lets the optimizer fix parallel near-critical paths even when no single
   move improves the global period. *)
type cost = { period : float; lateness : float }

let eps = 1e-14

let cost_of ~threshold analysis =
  let period = Timing.min_period analysis in
  let lateness =
    List.fold_left
      (fun acc (e : Timing.endpoint_timing) ->
        let total = e.Timing.data_arrival +. e.Timing.setup in
        acc +. Float.max 0. (total -. threshold))
      0. (Timing.endpoints analysis)
  in
  { period; lateness }

let better a b =
  a.period < b.period -. eps
  || (a.period < b.period +. eps && a.lateness < b.lateness -. eps)

(* Trial swaps per pass. *)
let max_trials = 250

let resize ?(passes = 10) ~library netlist =
  (* Each trial swaps one cell in an incremental timer and rolls the swap
     back unless it improves the cost; the timer's analysis always equals
     a full pass over the current netlist. *)
  let timer = Timing.Incremental.create ~library netlist in
  let analysis = Timing.Incremental.analysis timer in
  let trials = ref 0 in
  let one_pass () =
    let base_period = Timing.min_period analysis in
    (* Near-critical window: endpoints within 5 % of the worst. *)
    let threshold = base_period *. 0.95 in
    let base_cost = cost_of ~threshold analysis in
    let paths = List.map (Paths.trace analysis) (take 8 (Timing.endpoints analysis)) in
    (* Tried in (instance name, family) order; the index identifies the
       instance, names need not be unique. *)
    let candidates =
      List.sort_uniq compare
        (List.concat_map
           (fun (p : Paths.t) ->
             List.map
               (fun (s : Paths.step) ->
                 ( s.Paths.inst.Netlist.inst_name,
                   (Netlist.catalog_cell s.Paths.inst).Cell.base,
                   s.Paths.index ))
               p.Paths.steps)
           paths)
    in
    let try_instance current_cost (_, base, index) =
      if !trials >= max_trials then current_cost
      else
        let current_cell = (Timing.instance analysis index).Netlist.cell_name in
        List.fold_left
          (fun current_cost (variant : Library.entry) ->
            if variant.Library.indexed_name = current_cell then current_cost
            else begin
              Timing.Incremental.swap timer ~inst:index
                ~cell:variant.Library.indexed_name;
              incr trials;
              let c = cost_of ~threshold analysis in
              if better c current_cost then begin
                Timing.Incremental.commit timer;
                c
              end
              else begin
                Timing.Incremental.rollback timer;
                current_cost
              end
            end)
          current_cost (family_variants library base)
    in
    better (List.fold_left try_instance base_cost candidates) base_cost
  in
  let rec loop remaining =
    if remaining > 0 && !trials < max_trials then begin
      trials := 0;
      if one_pass () then loop (remaining - 1)
    end
  in
  loop passes;
  Timing.netlist analysis

(* ----------------------- global variant sweep ----------------------- *)

let worst_arc_delay (entry : Library.entry) ~slew ~load =
  List.fold_left
    (fun acc (a : Library.arc) ->
      let d =
        Float.max
          (Library.delay_of a ~dir:Library.Rise ~slew ~load)
          (Library.delay_of a ~dir:Library.Fall ~slew ~load)
      in
      Float.max acc d)
    neg_infinity entry.Library.arcs

let total_input_cap (entry : Library.entry) =
  List.fold_left (fun acc (_, c) -> acc +. c) 0. entry.Library.pin_caps

(* Cost of presenting a bigger pin to the (unknown) upstream driver. *)
let upstream_resistance_estimate = 3e3

let variant_sweep ~library netlist =
  let structure = Timing.prepare_structure netlist in
  let one_round nl =
    let analysis = Timing.analyze ~structure ~library nl in
    let base_period = Timing.min_period analysis in
    let choose (inst : Netlist.instance) =
      let cell = Netlist.catalog_cell inst in
      if cell.Cell.kind <> Cell.Combinational || inst.Netlist.inputs = [] then
        inst.Netlist.cell_name
      else begin
        let slew =
          List.fold_left
            (fun acc (_, net) ->
              Float.max acc
                (Float.max
                   (Timing.slew_at analysis net Library.Rise)
                   (Timing.slew_at analysis net Library.Fall)))
            0. inst.Netlist.inputs
        in
        let load =
          List.fold_left
            (fun acc (_, net) -> Float.max acc (Timing.load_on analysis net))
            0. inst.Netlist.outputs
        in
        let score (e : Library.entry) =
          worst_arc_delay e ~slew ~load
          +. (upstream_resistance_estimate *. total_input_cap e)
        in
        let variants = family_variants library cell.Cell.base in
        match variants with
        | [] -> inst.Netlist.cell_name
        | first :: rest ->
          let best =
            List.fold_left
              (fun best e -> if score e < score best then e else best)
              first rest
          in
          best.Library.indexed_name
      end
    in
    let swept = Netlist.rename_cells choose nl in
    let new_period =
      Timing.min_period (Timing.analyze ~structure ~library swept)
    in
    if new_period < base_period +. eps then (swept, new_period < base_period -. eps)
    else (nl, false)
  in
  let rec loop nl remaining =
    if remaining = 0 then nl
    else begin
      let nl', improved = one_round nl in
      if improved then loop nl' (remaining - 1) else nl'
    end
  in
  loop netlist 3
