module Rng = Aging_util.Rng
module Axes = Aging_liberty.Axes
module Library = Aging_liberty.Library
module Nldm = Aging_liberty.Nldm
module Io = Aging_liberty.Io
module Characterize = Aging_liberty.Characterize
module Catalog = Aging_cells.Catalog
module Cell = Aging_cells.Cell
module Scenario = Aging_physics.Scenario
module Device = Aging_physics.Device
module Mosfet = Aging_spice.Mosfet
module Circuit = Aging_spice.Circuit
module Engine = Aging_spice.Engine
module Stimulus = Aging_spice.Stimulus
module Waveform = Aging_spice.Waveform
module Timing = Aging_sta.Timing
module Paths = Aging_sta.Paths
module Netlist = Aging_netlist.Netlist
module Sdf = Aging_sta.Sdf
module Event_sim = Aging_sim.Event_sim
module Flow = Aging_synth.Flow
module Guardband = Aging_core.Guardband
module Degradation_library = Aging_core.Degradation_library
module Designs = Aging_designs.Designs

type t = {
  name : string;
  doc : string;
  run : seed:int64 -> cases:int -> jobs:int -> Runner.outcome;
}

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let** ) r f = match r with Ok () -> f () | Error _ as e -> e

(* Shared fresh library (Analytic backend, coarse axes, full catalog):
   built once per process, used by every oracle that just needs *some*
   self-consistent NLDM library over the catalog. *)
let shared_fresh =
  lazy (Characterize.fresh_library ~backend:Characterize.Analytic ~axes:Axes.coarse ())

(* ------------------------------------------------------------------ *)
(* 1. spice-vs-alpha: transient gate delays vs. the alpha-power law.  *)

type spice_case = {
  sc_slew : float;
  sc_load : float;
  sc_lam : float;
  sc_load_factor : float;
}

let pp_spice_case c =
  Printf.sprintf "{slew=%.3e load=%.3e lam=%.3f load_factor=%.2f}" c.sc_slew
    c.sc_load c.sc_lam c.sc_load_factor

let spice_case_gen =
  let open QCheck2.Gen in
  let+ sc_slew = float_range 5e-12 9e-10
  and+ sc_load = float_range 5e-16 2e-14
  and+ sc_lam = float_range 0.05 1.0
  and+ sc_load_factor = float_range 1.3 3.0 in
  { sc_slew; sc_load; sc_lam; sc_load_factor }

let first_arc cell = List.hd (Cell.arcs cell)

let measure ~scenario ~cell ~dir ~slew ~load =
  fst
    (Characterize.arc_measure Characterize.default_backend ~scenario ~cell
       ~arc:(first_arc cell) ~dir ~slew ~load)

let spice_vs_alpha c =
  let fresh = Scenario.scenario Scenario.fresh in
  let inv = Catalog.find_exn "INV_X1" in
  let nand2 = Catalog.find_exn "NAND2_X1" in
  let nor2 = Catalog.find_exn "NOR2_X1" in
  let slew = c.sc_slew and load = c.sc_load in
  (* Monotone in load: a fresh INV fall delay grows with capacitance. *)
  let d_lo = measure ~scenario:fresh ~cell:inv ~dir:Library.Fall ~slew ~load in
  let d_hi =
    measure ~scenario:fresh ~cell:inv ~dir:Library.Fall ~slew
      ~load:(load *. c.sc_load_factor)
  in
  let** () =
    if d_hi > d_lo then Ok ()
    else
      fail "INV fall delay not monotone in load: %.3e @%.3e vs %.3e @%.3e" d_lo
        load d_hi (load *. c.sc_load_factor)
  in
  (* nMOS-only stress slows the INV fall; the slowdown tracks the
     alpha-power first-order prediction Id_fresh/Id_aged. *)
  let n_corner = Scenario.scenario (Scenario.corner ~lambda_p:0. ~lambda_n:c.sc_lam) in
  let d_aged = measure ~scenario:n_corner ~cell:inv ~dir:Library.Fall ~slew ~load in
  let** () =
    if d_aged >= d_lo *. (1. -. 1e-9) then Ok ()
    else fail "aged INV fall faster than fresh: %.4e < %.4e" d_aged d_lo
  in
  let dev = Device.nmos ~w:Device.w_min in
  let aged_dev = Scenario.age_device n_corner dev in
  let id_of d = Mosfet.saturation_current d ~vov:(Device.vdd -. Device.effective_vth d) in
  let predicted = id_of dev /. id_of aged_dev in
  let ratio = d_aged /. d_lo in
  let** () =
    if predicted >= 1.0 then Ok ()
    else fail "alpha-power predicts aging speeds the gate up: %.4f" predicted
  in
  (* The first-order prediction is drive-limited; as the input ramp starts
     to dominate the delay (slow slews into tiny loads) its error grows,
     so the tolerance widens linearly with slew (calibrated: worst
     observed |diff| is 0.34 at slew 0.9 ns, load 0.5 fF, lambda 1). *)
  let tolerance = 0.15 +. (0.30 *. (slew /. 9e-10)) in
  let** () =
    if abs_float (ratio -. predicted) <= tolerance then Ok ()
    else
      fail "spice ratio %.4f vs alpha-power prediction %.4f (|diff| > %.3f)"
        ratio predicted tolerance
  in
  (* Fig. 1a: the NAND2 rise arc worsens under pMOS stress. *)
  let p_corner = Scenario.scenario (Scenario.corner ~lambda_p:c.sc_lam ~lambda_n:0.) in
  let nand_fresh = measure ~scenario:fresh ~cell:nand2 ~dir:Library.Rise ~slew ~load in
  let nand_aged = measure ~scenario:p_corner ~cell:nand2 ~dir:Library.Rise ~slew ~load in
  let** () =
    if nand_aged >= nand_fresh *. (1. -. 1e-4) then Ok ()
    else
      fail "NAND2 rise improved under pMOS stress: fresh %.4e aged %.4e"
        nand_fresh nand_aged
  in
  (* Fig. 1b: the NOR2 fall arc *improves* under pMOS stress (the aged
     pull-up fights the falling output less). *)
  let nor_fresh = measure ~scenario:fresh ~cell:nor2 ~dir:Library.Fall ~slew ~load in
  let nor_aged = measure ~scenario:p_corner ~cell:nor2 ~dir:Library.Fall ~slew ~load in
  if nor_aged <= nor_fresh *. (1. +. 1e-4) then Ok ()
  else
    fail "NOR2 fall worsened under pMOS stress: fresh %.4e aged %.4e" nor_fresh
      nor_aged

(* ------------------------------------------------------------------ *)
(* 2. sim-vs-sta: the event simulator agrees with the functional       *)
(* reference (and reports no timing errors) at the STA period.         *)

let sim_cycles = 16

let sorted_outputs l = List.sort compare l

let sim_vs_sta spec =
  let netlist = Netgen.build spec in
  let library = Lazy.force shared_fresh in
  let sim = Event_sim.prepare ~library netlist in
  let period = Float.max (Event_sim.min_period sim) 1e-10 *. 1.01 in
  let stimulus = Netgen.stimulus spec in
  let trace = Event_sim.run sim ~period ~cycles:sim_cycles ~stimulus in
  let reference = Event_sim.run_functional netlist ~cycles:sim_cycles ~stimulus in
  let** () =
    if trace.Event_sim.timing_errors = 0 then Ok ()
    else
      fail "%d timing errors at period %.3e (= 1.01 x STA min period)"
        trace.Event_sim.timing_errors period
  in
  let diverging = ref [] in
  Array.iteri
    (fun i outs ->
      if sorted_outputs outs <> sorted_outputs reference.(i) then
        diverging := i :: !diverging)
    trace.Event_sim.outputs;
  match List.rev !diverging with
  | [] -> Ok ()
  | cycles ->
    fail "outputs diverge from functional reference at cycles %s"
      (String.concat "," (List.map string_of_int cycles))

(* ------------------------------------------------------------------ *)
(* 3. nldm-interp: bilinear interpolation exact at grid points,        *)
(* bounded by the surrounding corners inside a cell.                   *)

type nldm_case = {
  nc_slews : float list;  (** strictly increasing *)
  nc_loads : float list;
  nc_table_seed : int;
  nc_fs : float;  (** fractional position of the probe point, slew axis *)
  nc_fl : float;
}

let pp_nldm_case c =
  Printf.sprintf "{slews=[%s] loads=[%s] table_seed=%d probe=(%.3f,%.3f)}"
    (String.concat ";" (List.map (Printf.sprintf "%.3e") c.nc_slews))
    (String.concat ";" (List.map (Printf.sprintf "%.3e") c.nc_loads))
    c.nc_table_seed c.nc_fs c.nc_fl

let axis_gen ~start_lo ~start_hi ~step_lo ~step_hi =
  let open QCheck2.Gen in
  let+ start = float_range start_lo start_hi
  and+ steps = list_size (int_range 1 4) (float_range step_lo step_hi) in
  let _, points =
    List.fold_left
      (fun (x, acc) d -> (x +. d, (x +. d) :: acc))
      (start, [ start ]) steps
  in
  List.rev points

let nldm_case_gen =
  let open QCheck2.Gen in
  let+ nc_slews = axis_gen ~start_lo:1e-12 ~start_hi:5e-11 ~step_lo:1e-12 ~step_hi:3e-10
  and+ nc_loads = axis_gen ~start_lo:1e-16 ~start_hi:1e-15 ~step_lo:1e-16 ~step_hi:8e-15
  and+ nc_table_seed = int_range 0 1_000_000
  and+ nc_fs = float_range 0.0 1.0
  and+ nc_fl = float_range 0.0 1.0 in
  { nc_slews; nc_loads; nc_table_seed; nc_fs; nc_fl }

let table_of_case c =
  let slews = Array.of_list c.nc_slews in
  let loads = Array.of_list c.nc_loads in
  let rng = Rng.create (Int64.of_int c.nc_table_seed) in
  let values =
    Array.init (Array.length slews) (fun _ ->
        Array.init (Array.length loads) (fun _ -> (Rng.float rng *. 1.1e-9) -. 1e-10))
  in
  Nldm.make ~slews ~loads ~values

let nldm_interp c =
  let table = table_of_case c in
  let slews = Array.of_list c.nc_slews and loads = Array.of_list c.nc_loads in
  let close a b = abs_float (a -. b) <= 1e-18 +. (1e-12 *. abs_float b) in
  (* Exact at every grid point. *)
  let bad = ref None in
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun j l ->
          let v = Nldm.lookup table ~slew:s ~load:l in
          let expect = table.Nldm.values.(i).(j) in
          if (not (close v expect)) && !bad = None then bad := Some (i, j, v, expect))
        loads)
    slews;
  let** () =
    match !bad with
    | None -> Ok ()
    | Some (i, j, v, expect) ->
      fail "grid point (%d,%d): lookup %.17e <> stored %.17e" i j v expect
  in
  (* Bounded by the surrounding corners inside a cell. *)
  let ns = Array.length slews and nl = Array.length loads in
  let pick_cell f n = min (n - 2) (int_of_float (f *. float_of_int (n - 1))) in
  let i = pick_cell c.nc_fs ns and j = pick_cell c.nc_fl nl in
  let s = slews.(i) +. ((slews.(i + 1) -. slews.(i)) *. c.nc_fs) in
  let l = loads.(j) +. ((loads.(j + 1) -. loads.(j)) *. c.nc_fl) in
  let s = Float.min s slews.(i + 1) and l = Float.min l loads.(j + 1) in
  let corners =
    [
      table.Nldm.values.(i).(j);
      table.Nldm.values.(i).(j + 1);
      table.Nldm.values.(i + 1).(j);
      table.Nldm.values.(i + 1).(j + 1);
    ]
  in
  let v = Nldm.lookup table ~slew:s ~load:l in
  let lo = List.fold_left Float.min infinity corners in
  let hi = List.fold_left Float.max neg_infinity corners in
  let margin = 1e-18 +. (1e-9 *. (hi -. lo)) in
  let** () =
    if v >= lo -. margin && v <= hi +. margin then Ok ()
    else
      fail "interior point (%.3e,%.3e): %.17e outside corner bounds [%.17e, %.17e]"
        s l v lo hi
  in
  (* tabulate (lookup table) reproduces the table. *)
  let rebuilt = Nldm.tabulate ~slews ~loads (fun ~slew ~load -> Nldm.lookup table ~slew ~load) in
  let ok = ref true in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> if not (close v table.Nldm.values.(i).(j)) then ok := false) row)
    rebuilt.Nldm.values;
  if !ok then Ok () else fail "tabulate(lookup) does not reproduce the table"

(* ------------------------------------------------------------------ *)
(* 4. liberty-fixpoint: write -> parse -> write is a fixpoint.         *)

type lib_case = {
  lc_cells : int list;  (** indices into [lib_cell_pool] *)
  lc_lambda_p : int;  (** thousandths *)
  lc_lambda_n : int;
  lc_slews : float list;
  lc_loads : float list;
  lc_table_seed : int;
  lc_indexed : bool;
}

let lib_cell_pool =
  [| "INV_X1"; "NAND2_X1"; "NOR2_X1"; "XOR2_X1"; "MUX2_X1"; "AOI21_X1"; "DFF_X1" |]

let pp_lib_case c =
  Printf.sprintf
    "{cells=[%s] corner=%.3f_%.3f slews=%d loads=%d table_seed=%d indexed=%b}"
    (String.concat ","
       (List.map (fun i -> lib_cell_pool.(i)) c.lc_cells))
    (float_of_int c.lc_lambda_p /. 1000.)
    (float_of_int c.lc_lambda_n /. 1000.)
    (List.length c.lc_slews) (List.length c.lc_loads) c.lc_table_seed
    c.lc_indexed

let lib_case_gen =
  let open QCheck2.Gen in
  let+ lc_cells = list_size (int_range 1 3) (int_range 0 (Array.length lib_cell_pool - 1))
  and+ lc_lambda_p = int_range 0 1000
  and+ lc_lambda_n = int_range 0 1000
  and+ lc_slews = axis_gen ~start_lo:1e-12 ~start_hi:5e-11 ~step_lo:1e-12 ~step_hi:3e-10
  and+ lc_loads = axis_gen ~start_lo:1e-16 ~start_hi:1e-15 ~step_lo:1e-16 ~step_hi:8e-15
  and+ lc_table_seed = int_range 0 1_000_000
  and+ lc_indexed = bool in
  { lc_cells; lc_lambda_p; lc_lambda_n; lc_slews; lc_loads; lc_table_seed; lc_indexed }

let library_of_case c =
  let slews = Array.of_list c.lc_slews and loads = Array.of_list c.lc_loads in
  let axes = { Axes.slews; loads } in
  let corner =
    Scenario.corner
      ~lambda_p:(float_of_int c.lc_lambda_p /. 1000.)
      ~lambda_n:(float_of_int c.lc_lambda_n /. 1000.)
  in
  let rng = Rng.create (Int64.of_int c.lc_table_seed) in
  let rand_table () =
    let values =
      Array.init (Array.length slews) (fun _ ->
          Array.init (Array.length loads) (fun _ -> Rng.float rng *. 1e-9))
    in
    Nldm.make ~slews ~loads ~values
  in
  let names =
    List.sort_uniq compare (List.map (fun i -> lib_cell_pool.(i)) c.lc_cells)
  in
  let entries =
    List.map
      (fun name ->
        let cell = Catalog.find_exn name in
        let arcs =
          List.map
            (fun (a : Cell.arc) ->
              {
                Library.from_pin = a.Cell.arc_input;
                to_pin = a.Cell.arc_output;
                sense = (if a.Cell.positive_unate then Library.Positive else Library.Negative);
                when_side = a.Cell.side;
                delay_rise = rand_table ();
                delay_fall = rand_table ();
                slew_rise = rand_table ();
                slew_fall = rand_table ();
              })
            (Cell.arcs cell)
        in
        let pin_caps =
          List.map (fun pin -> (pin, Rng.float rng *. 5e-15)) cell.Cell.inputs
        in
        let setup_time =
          if cell.Cell.kind = Cell.Flipflop then Rng.float rng *. 1e-10 else 0.
        in
        {
          Library.cell;
          indexed_name =
            (if c.lc_indexed then Scenario.indexed_name name corner else name);
          corner;
          arcs;
          pin_caps;
          setup_time;
        })
      names
  in
  Library.create ~lib_name:"propcheck" ~axes entries

let liberty_fixpoint c =
  let lib = library_of_case c in
  let s1 = Io.to_string lib in
  match Io.of_string s1 with
  | exception Failure msg -> fail "reparse failed: %s" msg
  | lib2 ->
    let s2 = Io.to_string lib2 in
    let** () =
      if String.equal s1 s2 then Ok ()
      else fail "write -> parse -> write is not a fixpoint (%d vs %d bytes)"
          (String.length s1) (String.length s2)
    in
    let** () =
      if Library.names lib2 = Library.names lib then Ok ()
      else fail "entry names changed across the round-trip"
    in
    let n1 = List.length (Library.entries lib) in
    let n2 = List.length (Library.entries lib2) in
    if n1 = n2 then Ok () else fail "entry count changed: %d -> %d" n1 n2

(* ------------------------------------------------------------------ *)
(* 5. parallel-identity: jobs=N characterization is bit-identical to   *)
(* sequential.                                                         *)

type par_case = {
  pc_cells : int list;
  pc_lambda_p : float;
  pc_lambda_n : float;
  pc_jobs : int;
  pc_transient : bool;
}

let par_cell_pool =
  [| "INV_X1"; "BUF_X1"; "NAND2_X1"; "NOR2_X1"; "AND2_X1"; "OR2_X1"; "DFF_X1" |]

let pp_par_case c =
  Printf.sprintf "{cells=[%s] corner=%.3f_%.3f jobs=%d backend=%s}"
    (String.concat "," (List.map (fun i -> par_cell_pool.(i)) c.pc_cells))
    c.pc_lambda_p c.pc_lambda_n c.pc_jobs
    (if c.pc_transient then "transient" else "analytic")

let par_case_gen =
  let open QCheck2.Gen in
  let+ pc_cells = list_size (int_range 1 4) (int_range 0 (Array.length par_cell_pool - 1))
  and+ pc_lambda_p = float_range 0.0 1.0
  and+ pc_lambda_n = float_range 0.0 1.0
  and+ pc_jobs = int_range 2 8
  and+ transient_pick = int_range 0 7 in
  { pc_cells; pc_lambda_p; pc_lambda_n; pc_jobs; pc_transient = transient_pick = 0 }

let entries_identical a b =
  let open Library in
  List.length (entries a) = List.length (entries b)
  && List.for_all2
       (fun ea eb ->
         ea.indexed_name = eb.indexed_name
         && Scenario.equal ea.corner eb.corner
         && ea.setup_time = eb.setup_time
         && ea.pin_caps = eb.pin_caps
         && ea.arcs = eb.arcs)
       (entries a) (entries b)

let parallel_identity ~max_jobs c =
  let backend =
    if c.pc_transient then Characterize.default_backend else Characterize.Analytic
  in
  let cells =
    if c.pc_transient then [ Catalog.find_exn "INV_X1" ]
    else
      List.map
        (fun i -> Catalog.find_exn par_cell_pool.(i))
        (List.sort_uniq compare c.pc_cells)
  in
  let scenario =
    Scenario.scenario (Scenario.corner ~lambda_p:c.pc_lambda_p ~lambda_n:c.pc_lambda_n)
  in
  let build jobs =
    Characterize.library ~backend ~cells ~jobs ~axes:Axes.coarse ~name:"par"
      ~scenario ()
  in
  let seq = build 1 in
  let par = build (min c.pc_jobs (max 2 max_jobs)) in
  if entries_identical seq par then Ok ()
  else fail "jobs=%d library differs from sequential build" c.pc_jobs

(* ------------------------------------------------------------------ *)
(* 6. guardband-monotone: more duty cycle never shrinks the guardband. *)

type gb_case = {
  gb_bits : int;
  gb_lp : float * float;  (** (lo, hi) pMOS duties *)
  gb_ln : float * float;
}

let pp_gb_case c =
  Printf.sprintf "{bits=%d lambda_p=%.3f<=%.3f lambda_n=%.3f<=%.3f}" c.gb_bits
    (fst c.gb_lp) (snd c.gb_lp) (fst c.gb_ln) (snd c.gb_ln)

let gb_case_gen =
  let open QCheck2.Gen in
  let ordered = map2 (fun a b -> (Float.min a b, Float.max a b))
      (float_range 0.0 1.0) (float_range 0.0 1.0) in
  let+ gb_bits = int_range 3 5
  and+ gb_lp = ordered
  and+ gb_ln = ordered in
  { gb_bits; gb_lp; gb_ln }

let gb_deglib =
  lazy
    (let counter = Designs.counter ~bits:5 in
     let cells =
       List.map (fun (name, _) -> Catalog.find_exn name)
         (Aging_netlist.Netlist.count_cells counter)
     in
     Degradation_library.create ~backend:Characterize.Analytic ~cells
       ~axes:Axes.coarse ())

let guardband_monotone c =
  let deglib = Lazy.force gb_deglib in
  let netlist = Designs.counter ~bits:c.gb_bits in
  let corner_lo = Scenario.corner ~lambda_p:(fst c.gb_lp) ~lambda_n:(fst c.gb_ln) in
  let corner_hi = Scenario.corner ~lambda_p:(snd c.gb_lp) ~lambda_n:(snd c.gb_ln) in
  let est_lo = Guardband.static ~deglib ~corner:corner_lo netlist in
  let est_hi = Guardband.static ~deglib ~corner:corner_hi netlist in
  let consistent (e : Guardband.estimate) =
    abs_float (e.guardband -. (e.aged_period -. e.fresh_period)) <= 1e-18
  in
  let** () =
    if consistent est_lo && consistent est_hi then Ok ()
    else fail "guardband <> aged - fresh"
  in
  let** () =
    if est_lo.Guardband.guardband >= -1e-15 then Ok ()
    else fail "negative guardband %.3e at the weaker corner" est_lo.Guardband.guardband
  in
  let** () =
    if est_hi.Guardband.guardband >= est_lo.Guardband.guardband -. 1e-15 then Ok ()
    else
      fail "guardband not monotone in duty cycle: %.6e at %s > %.6e at %s"
        est_lo.Guardband.guardband (Scenario.suffix corner_lo)
        est_hi.Guardband.guardband (Scenario.suffix corner_hi)
  in
  (* The underlying physics: the aged nMOS/pMOS thresholds are monotone in
     their duty cycles too. *)
  let vth corner dev =
    Device.effective_vth (Scenario.age_device (Scenario.scenario corner) dev)
  in
  let n = Device.nmos ~w:Device.w_min and p = Device.pmos ~w:Device.w_min in
  if vth corner_hi n >= vth corner_lo n -. 1e-15
     && vth corner_hi p >= vth corner_lo p -. 1e-15
  then Ok ()
  else fail "aged Vth not monotone in duty cycle"

(* ------------------------------------------------------------------ *)
(* 7. sdf-roundtrip: write -> parse -> write on random netlists.       *)

let sdf_roundtrip spec =
  let netlist = Netgen.build spec in
  let library = Lazy.force shared_fresh in
  let analysis = Timing.analyze ~library netlist in
  let sdf = Sdf.of_analysis analysis in
  let s1 = Sdf.to_string sdf in
  match Sdf.of_string s1 with
  | Error msg -> fail "reparse failed: %s" msg
  | Ok sdf2 ->
    let s2 = Sdf.to_string sdf2 in
    let** () =
      if String.equal s1 s2 then Ok ()
      else fail "write -> parse -> write is not a fixpoint"
    in
    let** () =
      if List.length sdf2.Sdf.cells = List.length sdf.Sdf.cells then Ok ()
      else fail "cell count changed across the round-trip"
    in
    let bad = ref None in
    List.iter
      (fun (c : Sdf.cell) ->
        List.iter
          (fun (p : Sdf.iopath) ->
            List.iter
              (fun (t : Sdf.triple) ->
                List.iter
                  (fun d ->
                    if (not (Float.is_finite d)) || d < 0. then
                      bad := Some (c.Sdf.instance, p.Sdf.from_pin, d))
                  [ t.Sdf.d_min; t.Sdf.d_typ; t.Sdf.d_max ])
              [ p.Sdf.rise; p.Sdf.fall ])
          c.Sdf.iopaths)
      sdf2.Sdf.cells;
    (match !bad with
    | None -> Ok ()
    | Some (inst, pin, d) ->
      fail "non-finite or negative delay %.4e on %s/%s" d inst pin)

(* ------------------------------------------------------------------ *)
(* 8. synth-equiv: the synthesis flow preserves cycle-accurate          *)
(* behaviour on random netlists.                                        *)

let synth_equiv spec =
  let netlist = Netgen.build spec in
  let library = Lazy.force shared_fresh in
  let mapped = Flow.compile ~library netlist in
  let stimulus = Netgen.stimulus spec in
  let cycles = 12 in
  let ref_out = Event_sim.run_functional netlist ~cycles ~stimulus in
  let map_out = Event_sim.run_functional mapped ~cycles ~stimulus in
  let diverging = ref [] in
  Array.iteri
    (fun i outs ->
      if sorted_outputs outs <> sorted_outputs map_out.(i) then
        diverging := i :: !diverging)
    ref_out;
  match List.rev !diverging with
  | [] -> Ok ()
  | cycles ->
    fail "synthesized netlist diverges at cycles %s"
      (String.concat "," (List.map string_of_int cycles))

(* ------------------------------------------------------------------ *)
(* 9. jacobian-fd: the engine's analytic device derivatives vs finite
   differences of the current equation itself, at random (aged) devices
   and operating points; plus one transient where the engine's
   [fd_jacobian] option must reproduce the analytic-Jacobian delays. *)

type jac_case = {
  jac_pmos : bool;
  jac_w : float;
  jac_dvth : float;
  jac_mu : float;
  jac_vg : float;
  jac_vd : float;
  jac_vs : float;
  jac_slew : float;
  jac_load : float;
}

let pp_jac_case c =
  Printf.sprintf
    "{%s w=%.2e dvth=%.3f mu=%.2f vg=%.3f vd=%.3f vs=%.3f slew=%.2e load=%.2e}"
    (if c.jac_pmos then "pmos" else "nmos")
    c.jac_w c.jac_dvth c.jac_mu c.jac_vg c.jac_vd c.jac_vs c.jac_slew
    c.jac_load

let jac_case_gen =
  let open QCheck2.Gen in
  let+ p = float_range 0. 1.
  and+ jac_w = float_range Device.w_min (4. *. Device.w_min)
  and+ jac_dvth = float_range 0. 0.12
  and+ jac_mu = float_range 0.8 1.0
  and+ jac_vg = float_range (-0.1) (Device.vdd +. 0.1)
  and+ jac_vd = float_range (-0.1) (Device.vdd +. 0.1)
  and+ jac_vs = float_range (-0.1) (Device.vdd +. 0.1)
  and+ jac_slew = float_range 2e-11 5e-10
  and+ jac_load = float_range 1e-15 8e-15 in
  { jac_pmos = p < 0.5; jac_w; jac_dvth; jac_mu; jac_vg; jac_vd; jac_vs;
    jac_slew; jac_load }

let jacobian_fd c =
  let dev =
    Device.with_aging ~delta_vth:c.jac_dvth ~mu_factor:c.jac_mu
      (if c.jac_pmos then Device.pmos ~w:c.jac_w else Device.nmos ~w:c.jac_w)
  in
  let vg = c.jac_vg and vd = c.jac_vd and vs = c.jac_vs in
  let i_at ~vg ~vd ~vs = Mosfet.channel_current dev ~vg ~vd ~vs in
  let d = Mosfet.channel_current_deriv dev ~vg ~vd ~vs in
  let i = i_at ~vg ~vd ~vs in
  let** () =
    if Float.abs (d.Mosfet.i -. i) <= 1e-15 +. (1e-12 *. Float.abs i) then
      Ok ()
    else
      fail "deriv.i disagrees with channel_current: %.6e vs %.6e" d.Mosfet.i i
  in
  (* The model is continuous but only piecewise differentiable, and the
     analytic derivative is the one-sided derivative of the branch taken;
     near a region boundary (vds = vdsat, vov = 0, vd = vs) the central
     difference straddles the kink.  A partial therefore passes if ANY of
     the central / forward / backward estimates matches — one of the
     one-sided differences always approximates the branch taken. *)
  let h = 1e-7 in
  let check_partial what analytic f_plus f_minus =
    let central = (f_plus -. f_minus) /. (2. *. h) in
    let forward = (f_plus -. i) /. h in
    let backward = (i -. f_minus) /. h in
    let ok est =
      Float.abs (analytic -. est)
      <= 2e-6 +. (1e-3 *. Float.max (Float.abs analytic) (Float.abs est))
    in
    if ok central || ok forward || ok backward then Ok ()
    else
      fail "d/d%s: analytic %.6e vs FD %.6e (fwd %.6e, bwd %.6e)" what
        analytic central forward backward
  in
  let** () =
    check_partial "vg" d.Mosfet.di_dvg
      (i_at ~vg:(vg +. h) ~vd ~vs)
      (i_at ~vg:(vg -. h) ~vd ~vs)
  in
  let** () =
    check_partial "vd" d.Mosfet.di_dvd
      (i_at ~vg ~vd:(vd +. h) ~vs)
      (i_at ~vg ~vd:(vd -. h) ~vs)
  in
  let** () =
    check_partial "vs" d.Mosfet.di_dvs
      (i_at ~vg ~vd ~vs:(vs +. h))
      (i_at ~vg ~vd ~vs:(vs -. h))
  in
  (* End to end: the FD-Jacobian engine path must land on the same INV
     delay and output slew as the analytic path.  Both linearizations
     drive the same Newton iteration to the same [newton_tol], so only
     sub-tolerance trajectory differences survive into the crossings. *)
  let inv = Catalog.find_exn "INV_X1" in
  let run fd_jacobian =
    let circuit = Circuit.map_devices Fun.id inv.Cell.built.Cell.circuit in
    let out_node = List.assoc "Y" inv.Cell.built.Cell.output_nodes in
    let in_node = List.assoc "A" inv.Cell.built.Cell.input_nodes in
    Circuit.add_cap circuit out_node c.jac_load;
    let options =
      { Engine.default_options with settle_time = 0.8e-9; fd_jacobian }
    in
    let t_start = 5e-11 in
    let t_stop =
      t_start +. Stimulus.full_ramp_time c.jac_slew +. 2e-9
    in
    let r =
      Engine.transient ~options circuit
        ~drives:
          [ (in_node, Stimulus.ramp ~t_start ~slew:c.jac_slew ~rising:true ()) ]
        ~t_stop
    in
    let w_in = Engine.waveform r in_node in
    let w_out = Engine.waveform r out_node in
    ( Waveform.delay ~input:w_in ~output:w_out ~out_direction:Waveform.Falling
        ~vdd:Device.vdd,
      Waveform.slew w_out ~direction:Waveform.Falling ~vdd:Device.vdd )
  in
  let d_ana, s_ana = run false in
  let d_fd, s_fd = run true in
  let close what a b =
    match (a, b) with
    | Some a, Some b ->
      if Float.abs (a -. b) <= 0.02 *. Float.max (Float.abs a) (Float.abs b)
      then Ok ()
      else fail "fd_jacobian %s diverges: analytic %.4e vs fd %.4e" what a b
    | None, _ | _, None -> fail "missing %s measurement" what
  in
  let** () = close "delay" d_ana d_fd in
  close "slew" s_ana s_fd

(* ------------------------------------------------------------------ *)
(* 10. sta-incremental: the incremental timer vs a fresh full pass     *)
(* after every swap, commit and rollback of a random sequence.          *)

type inc_target = Any_instance | On_critical_path | Flipflop

type inc_op = {
  io_target : inc_target;
  io_pick : int;  (** reduced modulo the instances the target admits *)
  io_variant : int;  (** reduced modulo the picked instance's family *)
  io_then : [ `Keep | `Commit | `Rollback ];  (** after the swap *)
}

type inc_case = { ic_spec : Netgen.spec; ic_ops : inc_op list }

let pp_inc_case c =
  let op o =
    Printf.sprintf "%s%d/%d%s"
      (match o.io_target with
      | Any_instance -> "any"
      | On_critical_path -> "cp"
      | Flipflop -> "ff")
      o.io_pick o.io_variant
      (match o.io_then with `Keep -> "" | `Commit -> "+commit" | `Rollback -> "+rollback")
  in
  Printf.sprintf "{netlist=%s ops=[%s]}" (Netgen.pp_spec c.ic_spec)
    (String.concat " " (List.map op c.ic_ops))

let inc_case_gen =
  let open QCheck2.Gen in
  let op =
    let+ io_target = oneofl [ Any_instance; On_critical_path; Flipflop ]
    and+ io_pick = int_range 0 1023
    and+ io_variant = int_range 0 15
    and+ io_then = oneofl [ `Keep; `Commit; `Rollback ] in
    { io_target; io_pick; io_variant; io_then }
  in
  let+ ic_spec = Netgen.spec and+ ic_ops = list_size (int_range 1 12) op in
  { ic_spec; ic_ops }

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* First difference between two analyses of the same connectivity, bit for
   bit: per-net loads, arrivals, earliest arrivals, slews and provenance,
   then the sorted endpoint list. *)
let timing_mismatch ~n_nets inc full =
  let at_net net =
    if not (same_bits (Timing.load_on inc net) (Timing.load_on full net)) then
      Some (Printf.sprintf "load on net %d: %h vs %h" net (Timing.load_on inc net)
              (Timing.load_on full net))
    else
      List.find_map
        (fun dir ->
          let edge = match dir with Library.Rise -> "rise" | Library.Fall -> "fall" in
          match
            List.find_map
              (fun (what, f) ->
                if same_bits (f inc net dir) (f full net dir) then None
                else
                  Some
                    (Printf.sprintf "%s on net %d (%s): %h vs %h" what net edge
                       (f inc net dir) (f full net dir)))
              [
                ("arrival", Timing.arrival);
                ("min arrival", Timing.min_arrival);
                ("slew", Timing.slew_at);
              ]
          with
          | Some _ as m -> m
          | None ->
            if Timing.provenance inc net dir = Timing.provenance full net dir then None
            else Some (Printf.sprintf "provenance on net %d (%s)" net edge))
        [ Library.Rise; Library.Fall ]
  in
  match List.find_map at_net (List.init n_nets Fun.id) with
  | Some _ as m -> m
  | None ->
    let same_endpoint (a : Timing.endpoint_timing) (b : Timing.endpoint_timing) =
      a.Timing.endpoint = b.Timing.endpoint
      && a.Timing.direction = b.Timing.direction
      && same_bits a.Timing.data_arrival b.Timing.data_arrival
      && same_bits a.Timing.setup b.Timing.setup
    in
    let ea = Timing.endpoints inc and eb = Timing.endpoints full in
    if List.length ea = List.length eb && List.for_all2 same_endpoint ea eb then None
    else Some "endpoint list differs"

let sta_incremental c =
  let netlist = Netgen.build c.ic_spec in
  let library = Lazy.force shared_fresh in
  let timer = Timing.Incremental.create ~library netlist in
  let view = Timing.Incremental.analysis timer in
  let n = Array.length netlist.Netlist.instances in
  (* The cells the timer should hold now, and at the last commit. *)
  let cells =
    Array.map (fun i -> i.Netlist.cell_name) netlist.Netlist.instances
  in
  let committed = Array.copy cells in
  let expected () =
    {
      netlist with
      Netlist.instances =
        Array.mapi
          (fun i inst -> { inst with Netlist.cell_name = cells.(i) })
          netlist.Netlist.instances;
    }
  in
  let variants i =
    let base = (Netlist.catalog_cell (Timing.instance view i)).Cell.base in
    List.filter (fun (e : Library.entry) -> e.Library.cell.Cell.base = base)
      (Library.entries library)
  in
  let candidates = function
    | Any_instance -> List.init n Fun.id
    | Flipflop ->
      List.filter
        (fun i -> Netlist.is_flipflop (Timing.instance view i))
        (List.init n Fun.id)
    | On_critical_path ->
      (match Timing.endpoints view with
       | [] -> []
       | _ ->
         List.map (fun (s : Paths.step) -> s.Paths.index)
           (Paths.critical view).Paths.steps)
  in
  let check step what =
    let nl = expected () in
    if Timing.netlist view <> nl then
      fail "step %d (%s): timer netlist differs from the swapped netlist" step what
    else
      match
        timing_mismatch ~n_nets:nl.Netlist.n_nets view
          (Timing.analyze ~library nl)
      with
      | None -> Ok ()
      | Some m -> fail "step %d (%s): %s" step what m
  in
  let rec run step = function
    | [] -> Ok ()
    | o :: rest ->
      match candidates o.io_target with
      | [] -> run (step + 1) rest
      | pool ->
        let i = List.nth pool (o.io_pick mod List.length pool) in
        let vs = variants i in
        let v = (List.nth vs (o.io_variant mod List.length vs)).Library.indexed_name in
        Timing.Incremental.swap timer ~inst:i ~cell:v;
        cells.(i) <- v;
        let** () = check step (Printf.sprintf "swap %d to %s" i v) in
        let** () =
          match o.io_then with
          | `Keep -> Ok ()
          | `Commit ->
            Timing.Incremental.commit timer;
            Array.blit cells 0 committed 0 n;
            Ok ()
          | `Rollback ->
            Timing.Incremental.rollback timer;
            Array.blit committed 0 cells 0 n;
            check step "rollback"
        in
        run (step + 1) rest
  in
  let** () = check 0 "create" in
  run 1 c.ic_ops

(* ------------------------------------------------------------------ *)

let mk name doc ~print ~gen prop =
  {
    name;
    doc;
    run = (fun ~seed ~cases ~jobs:_ -> Runner.run ~cases ~seed ~name ~print ~gen prop);
  }

let all () =
  [
    mk "spice-vs-alpha"
      "transient gate delays vs. the alpha-power first-order prediction \
       (monotone in load and duty; Fig. 1 NAND/NOR orderings)"
      ~print:pp_spice_case ~gen:spice_case_gen spice_vs_alpha;
    mk "sim-vs-sta"
      "event-driven simulation at the STA period: zero timing errors, \
       outputs match the functional reference"
      ~print:Netgen.pp_spec ~gen:Netgen.spec sim_vs_sta;
    mk "nldm-interp"
      "bilinear NLDM interpolation: exact at grid points, corner-bounded \
       inside cells, tabulate(lookup) = id"
      ~print:pp_nldm_case ~gen:nldm_case_gen nldm_interp;
    mk "liberty-fixpoint"
      "liberty .alib write -> parse -> write fixpoint on random libraries"
      ~print:pp_lib_case ~gen:lib_case_gen liberty_fixpoint;
    {
      name = "parallel-identity";
      doc =
        "characterization at jobs=N is bit-identical to the sequential build";
      run =
        (fun ~seed ~cases ~jobs ->
          Runner.run ~cases ~seed ~name:"parallel-identity" ~print:pp_par_case
            ~gen:par_case_gen
            (parallel_identity ~max_jobs:jobs));
    };
    mk "guardband-monotone"
      "static guardbands are nonnegative and monotone in duty cycle"
      ~print:pp_gb_case ~gen:gb_case_gen guardband_monotone;
    mk "sdf-roundtrip"
      "SDF write -> parse -> write fixpoint with finite nonnegative delay \
       triples on random netlists"
      ~print:Netgen.pp_spec ~gen:Netgen.spec sdf_roundtrip;
    mk "synth-equiv"
      "the synthesis flow preserves cycle-accurate behaviour on random \
       netlists"
      ~print:Netgen.pp_spec ~gen:Netgen.spec synth_equiv;
    mk "jacobian-fd"
      "analytic device derivatives match finite differences of the current \
       equation at random aged operating points; the engine's fd_jacobian \
       path reproduces the analytic-Jacobian delays"
      ~print:pp_jac_case ~gen:jac_case_gen jacobian_fd;
    mk "sta-incremental"
      "the incremental timer after random cell swaps (on and off the \
       critical path, flip-flops included), commits and rollbacks matches \
       a fresh full timing pass bit for bit"
      ~print:pp_inc_case ~gen:inc_case_gen sta_incremental;
  ]

let find name = List.find_opt (fun o -> o.name = name) (all ())
