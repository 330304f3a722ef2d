module Device = Aging_physics.Device
module Scenario = Aging_physics.Scenario
module Circuit = Aging_spice.Circuit
module Engine = Aging_spice.Engine
module Stimulus = Aging_spice.Stimulus
module Waveform = Aging_spice.Waveform
module Mosfet = Aging_spice.Mosfet
module Cell = Aging_cells.Cell
module Retry = Aging_util.Retry
module Pool = Aging_util.Pool
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Log = Aging_obs.Log

(* Per-point accounting in the process-global registry; these partition the
   grid exactly like the [report] counters do, so a metrics dump and a
   characterization report must always agree. *)
let m_measured = Metrics.counter "characterize.points.measured"
let m_retried = Metrics.counter "characterize.points.retried"
let m_repaired = Metrics.counter "characterize.points.repaired"
let m_failed = Metrics.counter "characterize.points.failed"
let m_repair_interpolated = Metrics.counter "characterize.repairs.interpolated"
let m_repair_analytic = Metrics.counter "characterize.repairs.analytic"
let m_cells = Metrics.counter "characterize.cells"

(* ------------------------------------------------------------------ *)
(* Typed per-point errors                                              *)
(* ------------------------------------------------------------------ *)

type point_error =
  | No_settle of float
  | No_crossing
  | No_slew
  | Non_converged of int

let point_error_to_string = function
  | No_settle v ->
    Printf.sprintf "output did not settle (%.3f V at the final sample)" v
  | No_crossing -> "no 50% crossing"
  | No_slew -> "no 20/80 transition"
  | Non_converged n ->
    Printf.sprintf "solver accepted %d non-converged step%s at the dt floor" n
      (if n = 1 then "" else "s")

type fault = { rate : float; seed : int; depth : int }

type backend =
  | Transient of Engine.options
  | Analytic
  | Faulty of fault * backend

(* Characterization runs many short cell-level transients; a shorter DC
   settle is plenty for single cells and the post-transition tail is cut by
   [stop_when] below. *)
let char_options = { Engine.default_options with Engine.settle_time = 0.8e-9 }

let default_backend = Transient char_options

let rail value = if value then Device.vdd else 0.

let in_direction (cell : Cell.t) (arc : Cell.arc) ~(dir : Library.direction) =
  match cell.Cell.kind with
  | Cell.Flipflop -> Library.Rise (* launch edge *)
  | Cell.Combinational ->
    if arc.Cell.positive_unate then dir
    else begin
      match dir with Library.Rise -> Library.Fall | Library.Fall -> Library.Rise
    end

let aged_circuit ~scenario (cell : Cell.t) =
  Circuit.map_devices (Scenario.age_device scenario) cell.Cell.built.circuit

(* ------------------------------------------------------------------ *)
(* Transient backend                                                    *)
(* ------------------------------------------------------------------ *)

let transient_measure ?(t_stop_scale = 1.) ?warm ?state_out options
    ~base_circuit ~(cell : Cell.t) ~(arc : Cell.arc) ~dir ~slew ~load =
  let circuit = Circuit.map_devices Fun.id base_circuit in
  let out_node = List.assoc arc.Cell.arc_output cell.Cell.built.output_nodes in
  let in_node = List.assoc arc.Cell.arc_input cell.Cell.built.input_nodes in
  Circuit.add_cap circuit out_node load;
  let in_dir = in_direction cell arc ~dir in
  let rising = in_dir = Library.Rise in
  let t_start = 5e-11 in
  let input_stim = Stimulus.ramp ~t_start ~slew ~rising () in
  let side_drives =
    List.map
      (fun (pin, value) ->
        (List.assoc pin cell.Cell.built.input_nodes, Stimulus.constant (rail value)))
      arc.Cell.side
  in
  let init =
    match cell.Cell.kind with
    | Cell.Combinational -> begin
      (* Warm start: seed every free node from a neighbouring grid point's
         settled final state (same topology, slightly different slew/load),
         so DC settling starts at — or within a Newton tolerance of — the
         operating point instead of relaxing from 0 V.  Combinational cells
         only: a latch seeded from a foreign state could settle into the
         wrong stored value. *)
      match warm with
      | Some state when Array.length state = Circuit.node_count circuit ->
        let driven = in_node :: List.map fst side_drives in
        let seeds = ref [] in
        for n = Circuit.node_count circuit - 1 downto 0 do
          if n <> Circuit.gnd && n <> Circuit.vdd && not (List.mem n driven)
          then seeds := (n, state.(n)) :: !seeds
        done;
        !seeds
      | Some _ | None -> []
    end
    | Cell.Flipflop ->
      (* Seed the slave latch storage node with the pre-edge state (the
         output is its complement); the clocked keeper maintains it through
         DC settling so the launch edge produces a real Q transition. *)
      let q_pre = (out_node, rail (dir = Library.Fall)) in
      begin
        match Circuit.find_node circuit "SLAVE" with
        | Some slave -> [ (slave, rail (dir = Library.Rise)); q_pre ]
        | None -> [ q_pre ]
      end
  in
  let t_stop = t_start +. Stimulus.full_ramp_time slew +. (t_stop_scale *. 3e-9) in
  let target = rail (dir = Library.Rise) in
  let stop_when time v =
    (* The output started at the opposite rail; once it is pinned to the
       target rail every crossing needed by the measurements has happened —
       but never stop before the input's own 50 % point, which a fast gate
       under a slow ramp can beat (negative delay). *)
    time > t_start +. (0.6 *. Stimulus.full_ramp_time slew)
    && Float.abs (v.(out_node) -. target) < 0.015
  in
  let result =
    Engine.transient ~options ~init ~stop_when circuit
      ~drives:((in_node, input_stim) :: side_drives)
      ~t_stop
  in
  let diag = Engine.diagnostics result in
  if diag.Engine.non_converged_steps > 0 then
    Error (Non_converged diag.Engine.non_converged_steps)
  else begin
    (* Hand the t=0 operating point back for the next grid point's warm
       start: across the grid the [t <= 0] drive values are identical, so
       this settled state is (to Newton tolerance) exactly where the next
       run's DC pre-roll wants to end up.  Only a converged run qualifies;
       the later sanity checks gate the *measurement*, but the settled
       state is a valid operating point either way. *)
    (match state_out with
    | Some r -> r := Some (Engine.settled_state result)
    | None -> ());
    let w_in = Engine.waveform result in_node in
    let w_out = Engine.waveform result out_node in
    let out_dir =
      match dir with Library.Rise -> Waveform.Rising | Library.Fall -> Waveform.Falling
    in
    let final = Engine.final_voltage result out_node in
    if Float.abs (final -. target) > 0.15 then Error (No_settle final)
    else begin
      match
        Waveform.delay ~input:w_in ~output:w_out ~out_direction:out_dir
          ~vdd:Device.vdd
      with
      | None -> Error No_crossing
      | Some delay -> begin
        match Waveform.slew w_out ~direction:out_dir ~vdd:Device.vdd with
        | None -> Error No_slew
        | Some out_slew -> Ok (delay, out_slew)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Analytic backend (state-of-the-art closed form, for ablation)       *)
(* ------------------------------------------------------------------ *)

let stage_count circuit (cell : Cell.t) =
  let input_nodes = List.map snd cell.Cell.built.input_nodes in
  let internal_gates =
    List.sort_uniq compare
      (List.filter_map
         (fun (m : Circuit.mos) ->
           if List.mem m.Circuit.g input_nodes then None else Some m.Circuit.g)
         (Circuit.mosfets circuit))
  in
  1 + List.length internal_gates

let drive_resistance circuit ~out_node ~(dir : Library.direction) =
  let wanted =
    match dir with Library.Rise -> Device.Pmos | Library.Fall -> Device.Nmos
  in
  let total_current =
    List.fold_left
      (fun acc (m : Circuit.mos) ->
        if
          m.Circuit.dev.Device.polarity = wanted
          && (m.Circuit.d = out_node || m.Circuit.s = out_node)
        then
          let vov = Device.vdd -. Device.effective_vth m.Circuit.dev in
          acc +. Mosfet.saturation_current m.Circuit.dev ~vov
        else acc)
      0. (Circuit.mosfets circuit)
  in
  if total_current <= 0. then 1e6
  else 0.9 *. Device.vdd /. total_current

let analytic_measure ~base_circuit ~(cell : Cell.t) ~(arc : Cell.arc) ~dir
    ~slew ~load =
  let out_node = List.assoc arc.Cell.arc_output cell.Cell.built.output_nodes in
  let r = drive_resistance base_circuit ~out_node ~dir in
  let c = load +. Circuit.capacitance base_circuit out_node in
  let stages = stage_count base_circuit cell in
  let intrinsic = 1.2e-11 *. float_of_int (stages - 1) in
  let delay = intrinsic +. (0.69 *. r *. c) +. (0.2 *. slew) in
  let out_slew = (1.39 *. r *. c) +. (0.1 *. slew) in
  (delay, out_slew)

(* ------------------------------------------------------------------ *)
(* Retry with escalation, fault injection                              *)
(* ------------------------------------------------------------------ *)

type point_key = {
  key_cell : string;
  key_from : string;
  key_to : string;
  key_dir : Library.direction;
  key_slew : float;
  key_load : float;
}

let key_to_string k =
  Printf.sprintf "%s arc %s->%s dir=%s slew=%.1fps load=%.2ffF" k.key_cell
    k.key_from k.key_to
    (match k.key_dir with Library.Rise -> "rise" | Library.Fall -> "fall")
    (k.key_slew *. 1e12) (k.key_load *. 1e15)

(* Rungs beyond the first attempt: progressively smaller dt floor, more
   Newton iterations, longer DC settle, and a longer post-transition tail. *)
let max_escalations = 2

let escalated attempt (o : Engine.options) =
  if attempt = 0 then (o, 1.)
  else
    let f = float_of_int attempt in
    ( {
        o with
        Engine.dt_min = o.Engine.dt_min /. (4. ** f);
        newton_max = o.Engine.newton_max * (attempt + 1);
        settle_time = o.Engine.settle_time *. (1. +. f);
      },
      1. +. f )

(* A fault decides deterministically from the point identity (not the call
   order) whether an attempt is sabotaged, so runs are reproducible and
   retries of the same point see the same injected failures up to [depth]. *)
let injects fault key ~attempt =
  attempt < fault.depth
  && fault.rate > 0.
  && Hashtbl.hash (fault.seed, key) land 0xFFFF
     < int_of_float (Float.min 1. fault.rate *. 65536.)

let injected_error fault key =
  match Hashtbl.hash (key, fault.seed, "error-kind") land 3 with
  | 0 -> No_settle (Device.vdd /. 2.)
  | 1 -> No_crossing
  | 2 -> No_slew
  | _ -> Non_converged 1

let rec attempt_point backend ~attempt ~key ?warm ?state_out ~base_circuit
    ~cell ~arc ~dir ~slew ~load () =
  match backend with
  | Faulty (fault, inner) ->
    if injects fault key ~attempt then Error (injected_error fault key)
    else
      attempt_point inner ~attempt ~key ?warm ?state_out ~base_circuit ~cell
        ~arc ~dir ~slew ~load ()
  | Analytic -> Ok (analytic_measure ~base_circuit ~cell ~arc ~dir ~slew ~load)
  | Transient options ->
    let options, t_stop_scale = escalated attempt options in
    (* Escalation rungs run cold: if the first attempt failed, the warm
       seed is suspect, and the rungs are about robustness, not speed. *)
    let warm = if attempt = 0 then warm else None in
    transient_measure ~t_stop_scale ?warm ?state_out options ~base_circuit
      ~cell ~arc ~dir ~slew ~load

let measure_point backend ~key ?warm ?state_out ~base_circuit ~cell ~arc ~dir
    ~slew ~load () =
  Retry.with_escalation
    ~ladder:(List.init (max_escalations + 1) Fun.id)
    (fun attempt ->
      attempt_point backend ~attempt ~key ?warm ?state_out ~base_circuit ~cell
        ~arc ~dir ~slew ~load ())

(* ------------------------------------------------------------------ *)
(* Characterization report                                             *)
(* ------------------------------------------------------------------ *)

type repair = Interpolated | Analytic_fallback

let repair_to_string = function
  | Interpolated -> "interpolated from neighbour grid points"
  | Analytic_fallback -> "analytic closed-form fallback"

type prov = Surrogate.prov = Seeded | Predicted | Fell_back

type arc_stats = {
  stat_cell : string;
  stat_from : string;
  stat_to : string;
  stat_dir : Library.direction;
  mutable measured : int;
  mutable retried : int;
  mutable repaired : int;
  mutable failed : int;
  mutable predicted : int;
  mutable repairs : repair list;
  mutable errors : point_error list;
  mutable prov : prov array array option;
      (* per-point provenance, surrogate builds only *)
  mutable sim_seconds : float;  (* wall time inside point simulations *)
  mutable grid_seconds : float; (* wall time of the whole grid *)
}

type report = { mutable stats : arc_stats list }

let report_create () = { stats = [] }

(* Fresh, unattached stats record: in a parallel build each (arc, dir) work
   unit owns its record exclusively and the records are appended to the
   report afterwards, in work-unit order, so the report is identical
   whatever the worker interleaving was. *)
let make_arc_stats ~cell ~from_pin ~to_pin ~dir =
  {
    stat_cell = cell;
    stat_from = from_pin;
    stat_to = to_pin;
    stat_dir = dir;
    measured = 0;
    retried = 0;
    repaired = 0;
    failed = 0;
    predicted = 0;
    repairs = [];
    errors = [];
    prov = None;
    sim_seconds = 0.;
    grid_seconds = 0.;
  }

type totals = {
  points : int;
  clean : int;
  recovered : int;
  degraded : int;
  lost : int;
  guessed : int;
}

let report_totals r =
  List.fold_left
    (fun t s ->
      {
        points =
          t.points + s.measured + s.retried + s.repaired + s.failed
          + s.predicted;
        clean = t.clean + s.measured;
        recovered = t.recovered + s.retried;
        degraded = t.degraded + s.repaired;
        lost = t.lost + s.failed;
        guessed = t.guessed + s.predicted;
      })
    { points = 0; clean = 0; recovered = 0; degraded = 0; lost = 0; guessed = 0 }
    r.stats

let report_clean r =
  let t = report_totals r in
  t.recovered = 0 && t.degraded = 0 && t.lost = 0

type surrogate_totals = {
  fit_simulated : int;
  fit_predicted : int;
  fit_fallback : int;
  fit_speedup : float;
}

(* Surrogate accounting of one report: provenance counts plus an
   estimated speedup — the measured mean cost of the points that were
   simulated, extrapolated to the full grid, against the wall time the
   grid actually took (fit and prediction overhead included).  The bench
   scenario measures the true speedup with a separate full build; this
   estimate is what a single surrogate run can report on its own. *)
let report_surrogate r =
  let any = List.exists (fun s -> s.prov <> None) r.stats in
  if not any then None
  else begin
    let sim = ref 0 and pred = ref 0 and fb = ref 0 in
    let sim_s = ref 0. and grid_s = ref 0. in
    List.iter
      (fun s ->
        sim_s := !sim_s +. s.sim_seconds;
        grid_s := !grid_s +. s.grid_seconds;
        match s.prov with
        | None -> ()
        | Some grid ->
          Array.iter
            (Array.iter (function
              | Seeded -> incr sim
              | Predicted -> incr pred
              | Fell_back -> incr fb))
            grid)
      r.stats;
    let sims = !sim + !fb in
    let per_sim = if sims > 0 then !sim_s /. float_of_int sims else 0. in
    let total = sims + !pred in
    let speedup =
      if !grid_s > 0. && per_sim > 0. then
        per_sim *. float_of_int total /. !grid_s
      else 1.
    in
    Some
      {
        fit_simulated = !sim;
        fit_predicted = !pred;
        fit_fallback = !fb;
        fit_speedup = speedup;
      }
  end

let dir_label = function Library.Rise -> "rise" | Library.Fall -> "fall"

let report_to_string r =
  let b = Buffer.create 1024 in
  let t = report_totals r in
  Buffer.add_string b
    (Printf.sprintf
       "characterization report: %d points (%d measured, %d retried, %d \
        repaired, %d failed%s)\n"
       t.points t.clean t.recovered t.degraded t.lost
       (if t.guessed > 0 then Printf.sprintf ", %d predicted" t.guessed
        else ""));
  List.iter
    (fun s ->
      if s.retried + s.repaired + s.failed > 0 then begin
        Buffer.add_string b
          (Printf.sprintf "  %s %s->%s %s: %d measured, %d retried, %d repaired, %d failed\n"
             s.stat_cell s.stat_from s.stat_to (dir_label s.stat_dir) s.measured
             s.retried s.repaired s.failed);
        List.iter
          (fun e ->
            Buffer.add_string b
              (Printf.sprintf "    - %s\n" (point_error_to_string e)))
          (List.rev s.errors);
        List.iter
          (fun rp ->
            Buffer.add_string b
              (Printf.sprintf "    - repair: %s\n" (repair_to_string rp)))
          (List.rev s.repairs)
      end)
    (List.rev r.stats);
  if t.recovered = 0 && t.degraded = 0 && t.lost = 0 then
    Buffer.add_string b "  all points measured on the first attempt\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Grid measurement with graceful degradation                          *)
(* ------------------------------------------------------------------ *)

(* Fill one (slews x loads) grid.  Pass 1 measures every point through the
   escalation ladder; pass 2 repairs exhausted points from already-measured
   orthogonal neighbours (mean of the adjacent grid values — failures are
   sparse, so this is a local estimate), degrading to the analytic
   closed-form model when an entire neighbourhood is missing.  The grid is
   always complete on return. *)
let measure_grid ?surrogate ~scenario backend ~(stats : arc_stats)
    ~(axes : Axes.t) ~base_circuit ~cell ~arc ~dir =
  let ns = Array.length axes.Axes.slews and nl = Array.length axes.Axes.loads in
  let delays = Array.make_matrix ns nl 0. in
  let slews_out = Array.make_matrix ns nl 0. in
  let ok = Array.make_matrix ns nl false in
  let holes = ref [] in
  let t_grid = Span.now () in
  (* Warm-start chain: each point seeds the next one's DC settle with the
     operating point of the last successful measurement.  The chain runs
     inside this (arc, dir) work unit, which is always sequential, so the
     grid values are identical whatever the worker fan-out is. *)
  let warm = ref None in
  let state_out = ref None in
  let sim_point i j =
    let slew = axes.Axes.slews.(i) and load = axes.Axes.loads.(j) in
    let key =
      {
        key_cell = (cell : Cell.t).Cell.name;
        key_from = (arc : Cell.arc).Cell.arc_input;
        key_to = arc.Cell.arc_output;
        key_dir = dir;
        key_slew = slew;
        key_load = load;
      }
    in
    let t_point = Span.now () in
    let outcome =
      Span.with_ "characterize.point"
        ~attrs:
          [
            ("cell", key.key_cell);
            ("slew", Printf.sprintf "%.3g" slew);
            ("load", Printf.sprintf "%.3g" load);
          ]
        (fun () ->
          state_out := None;
          let outcome =
            measure_point backend ~key ?warm:!warm ~state_out ~base_circuit
              ~cell ~arc ~dir ~slew ~load ()
          in
          (match !state_out with
          | Some _ as s -> warm := s
          | None -> ());
          outcome)
    in
    stats.sim_seconds <- stats.sim_seconds +. (Span.now () -. t_point);
    match outcome with
    | Retry.First_try (d, s) ->
      delays.(i).(j) <- d;
      slews_out.(i).(j) <- s;
      ok.(i).(j) <- true;
      stats.measured <- stats.measured + 1;
      Metrics.incr m_measured
    | Retry.Recovered ((d, s), errs) ->
      delays.(i).(j) <- d;
      slews_out.(i).(j) <- s;
      ok.(i).(j) <- true;
      stats.retried <- stats.retried + 1;
      Metrics.incr m_retried;
      stats.errors <- List.hd errs :: stats.errors
    | Retry.Exhausted errs ->
      holes := (i, j) :: !holes;
      stats.errors <- List.hd errs :: stats.errors
  in
  (match surrogate with
  | None ->
    for i = 0 to ns - 1 do
      for j = 0 to nl - 1 do
        sim_point i j
      done
    done
  | Some sur ->
    let prov =
      Surrogate.grid sur ~scenario ~cell:stats.stat_cell
        ~from_pin:stats.stat_from ~to_pin:stats.stat_to ~dir ~axes ~delays
        ~slews:slews_out
        ~simulate:(fun i j ->
          sim_point i j;
          ok.(i).(j))
    in
    stats.prov <- Some prov;
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j p ->
            if p = Predicted then begin
              ok.(i).(j) <- true;
              stats.predicted <- stats.predicted + 1
            end)
          row)
      prov);
  stats.grid_seconds <- stats.grid_seconds +. (Span.now () -. t_grid);
  List.iter
    (fun (i, j) ->
      let neighbours =
        List.filter
          (fun (i', j') -> i' >= 0 && i' < ns && j' >= 0 && j' < nl && ok.(i').(j'))
          [ (i - 1, j); (i + 1, j); (i, j - 1); (i, j + 1) ]
      in
      let repair =
        match neighbours with
        | [] ->
          let d, s =
            analytic_measure ~base_circuit ~cell ~arc ~dir
              ~slew:axes.Axes.slews.(i) ~load:axes.Axes.loads.(j)
          in
          delays.(i).(j) <- d;
          slews_out.(i).(j) <- s;
          Analytic_fallback
        | _ ->
          let n = float_of_int (List.length neighbours) in
          let mean get =
            List.fold_left (fun acc (i', j') -> acc +. get i' j') 0. neighbours /. n
          in
          delays.(i).(j) <- mean (fun i' j' -> delays.(i').(j'));
          slews_out.(i).(j) <- mean (fun i' j' -> slews_out.(i').(j'));
          Interpolated
      in
      stats.repairs <- repair :: stats.repairs;
      stats.repaired <- stats.repaired + 1;
      Metrics.incr m_repaired;
      Metrics.incr
        (match repair with
        | Interpolated -> m_repair_interpolated
        | Analytic_fallback -> m_repair_analytic))
    (List.rev !holes);
  if stats.retried + stats.repaired > 0 then
    Log.debugf "characterize" "%s %s->%s %s: %d measured, %d retried, %d repaired"
      stats.stat_cell stats.stat_from stats.stat_to
      (match stats.stat_dir with Library.Rise -> "rise" | Library.Fall -> "fall")
      stats.measured stats.retried stats.repaired;
  ( Nldm.make ~slews:axes.Axes.slews ~loads:axes.Axes.loads ~values:delays,
    Nldm.make ~slews:axes.Axes.slews ~loads:axes.Axes.loads ~values:slews_out )

(* ------------------------------------------------------------------ *)
(* Entry / library assembly                                            *)
(* ------------------------------------------------------------------ *)

let arc_measure backend ~scenario ~(cell : Cell.t) ~(arc : Cell.arc) ~dir ~slew
    ~load =
  let base_circuit = aged_circuit ~scenario cell in
  let key =
    {
      key_cell = cell.Cell.name;
      key_from = arc.Cell.arc_input;
      key_to = arc.Cell.arc_output;
      key_dir = dir;
      key_slew = slew;
      key_load = load;
    }
  in
  (* Legacy single-point entry point: the one place a point failure still
     escapes as an exception, after the full escalation ladder. *)
  match
    measure_point backend ~key ~base_circuit ~cell ~arc ~dir ~slew ~load ()
  with
  | Retry.First_try v | Retry.Recovered (v, _) -> v
  | Retry.Exhausted errs ->
    Metrics.incr m_failed;
    failwith
      (Printf.sprintf "Characterize: %s: %s" (key_to_string key)
         (String.concat "; " (List.map point_error_to_string errs)))

let mid_value table =
  let n_s, n_l = Nldm.dimensions table in
  table.Nldm.values.(n_s / 2).(n_l / 2)

(* The independent work units of one cell, in a fixed canonical order (the
   order its tables and report stats are assembled in): every
   combinational arc contributes a Rise and a Fall grid; a flip-flop
   contributes its launch-rise and launch-fall grids.  The two launch arcs
   (Q rise with D=1, Q fall with D=0) merge into one library arc; each
   capture value only yields its own output direction. *)
let grid_jobs (cell : Cell.t) =
  match cell.Cell.kind with
  | Cell.Combinational ->
    List.concat_map
      (fun arc -> [ (arc, Library.Rise); (arc, Library.Fall) ])
      (Cell.arcs cell)
  | Cell.Flipflop ->
    let q_arcs = Cell.arcs cell in
    let rise_arc =
      List.find (fun (a : Cell.arc) -> a.Cell.positive_unate) q_arcs
    in
    let fall_arc =
      List.find (fun (a : Cell.arc) -> not a.Cell.positive_unate) q_arcs
    in
    [ (rise_arc, Library.Rise); (fall_arc, Library.Fall) ]

(* Static cost of one grid, for longest-first claiming: every grid of a
   library has the same points, and a point's transient grows with the
   cell's device count (multi-stage cells and flip-flops lead). *)
let grid_cost (cell : Cell.t) =
  List.length (Circuit.mosfets cell.Cell.built.circuit)

(* One cell's library entry from its grids' tables, in [grid_jobs] order. *)
let make_entry ~scenario (cell : Cell.t) work tables =
  let arcs =
    match cell.Cell.kind with
    | Cell.Combinational ->
      List.mapi
        (fun i (arc : Cell.arc) ->
          let delay_rise, slew_rise = tables.(2 * i) in
          let delay_fall, slew_fall = tables.((2 * i) + 1) in
          {
            Library.from_pin = arc.Cell.arc_input;
            to_pin = arc.Cell.arc_output;
            sense =
              (if arc.Cell.positive_unate then Library.Positive
               else Library.Negative);
            when_side = arc.Cell.side;
            delay_rise;
            delay_fall;
            slew_rise;
            slew_fall;
          })
        (Cell.arcs cell)
    | Cell.Flipflop ->
      let rise_arc, _ = List.nth work 0 in
      let delay_rise, slew_rise = tables.(0) in
      let delay_fall, slew_fall = tables.(1) in
      [
        {
          Library.from_pin = rise_arc.Cell.arc_input;
          to_pin = rise_arc.Cell.arc_output;
          sense = Library.Positive;
          when_side = [];
          delay_rise;
          delay_fall;
          slew_rise;
          slew_fall;
        };
      ]
  in
  let setup_time =
    match cell.Cell.kind with
    | Cell.Combinational -> 0.
    | Cell.Flipflop ->
      (* A conservative constant-fraction model: setup tracks the clk->q
         delay of the aged cell. *)
      let worst_clkq =
        List.fold_left
          (fun acc (a : Library.arc) ->
            Float.max acc
              (Float.max (mid_value a.Library.delay_rise)
                 (mid_value a.Library.delay_fall)))
          0. arcs
      in
      0.6 *. worst_clkq
  in
  {
    Library.cell;
    indexed_name = cell.Cell.name;
    corner = scenario.Scenario.corner;
    arcs;
    pin_caps =
      List.map (fun pin -> (pin, Cell.input_capacitance cell pin)) cell.Cell.inputs;
    setup_time;
  }

let library ?(backend = default_backend) ?cells ?report ?(jobs = 1) ?surrogate
    ~axes ~name ~scenario () =
  let cells = Option.value cells ~default:(Aging_cells.Catalog.all ()) in
  let corner_tag = Scenario.suffix scenario.Scenario.corner in
  Span.with_ "characterize.library" ~attrs:[ ("library", name) ] @@ fun () ->
  Log.infof "characterize" "library %s: characterizing %d cells [%s, %d job%s]"
    name (List.length cells) corner_tag jobs
    (if jobs = 1 then "" else "s");
  (* One flat work list: every (cell, arc, dir) grid of the library, in
     catalog then work-unit order.  A grid is sequential inside (its own
     warm-start chain), so its tables do not depend on which domain claims
     it, or when; results are put back in work-list order. *)
  let per_cell = List.map (fun cell -> (cell, grid_jobs cell)) cells in
  let units =
    List.concat_map
      (fun ((cell : Cell.t), work) ->
        (* Shared read-only by the cell's grids; each measurement copies it
           before attaching its own load. *)
        let base_circuit = aged_circuit ~scenario cell in
        List.map (fun job -> (cell, base_circuit, job)) work)
      per_cell
  in
  let measure (cell, base_circuit, ((arc : Cell.arc), dir)) =
    let stats =
      make_arc_stats ~cell:cell.Cell.name ~from_pin:arc.Cell.arc_input
        ~to_pin:arc.Cell.arc_output ~dir
    in
    let tables =
      Span.with_ "characterize.arc"
        ~attrs:
          [
            ("cell", cell.Cell.name);
            ("from", arc.Cell.arc_input);
            ("to", arc.Cell.arc_output);
            ("dir", dir_label dir);
          ]
        (fun () ->
          measure_grid ?surrogate ~scenario backend ~stats ~axes ~base_circuit
            ~cell ~arc ~dir)
    in
    (stats, tables)
  in
  (* Claim order is longest-first, so the expensive grids start early and
     the pool's tail is made of short ones. *)
  let order =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> compare b a)
      (List.mapi
         (fun i ((cell, _, _) as unit) -> (grid_cost cell, i, unit))
         units)
  in
  let results = Array.make (List.length units) None in
  List.iter2
    (fun (_, i, _) r -> results.(i) <- Some r)
    order
    (Pool.map ~jobs (fun (_, _, unit) -> measure unit) order);
  let next = ref 0 in
  let entries =
    List.map
      (fun ((cell : Cell.t), work) ->
        let grids =
          Array.init (List.length work) (fun k ->
              Option.get results.(!next + k))
        in
        next := !next + Array.length grids;
        (* Same newest-first report order as a sequential run. *)
        Option.iter
          (fun r ->
            Array.iter (fun (stats, _) -> r.stats <- stats :: r.stats) grids)
          report;
        let e = make_entry ~scenario cell work (Array.map snd grids) in
        (* A cell's grids need not run back to back, so its time is the sum
           of its grids' wall times, not an interval. *)
        let seconds =
          Array.fold_left (fun acc (s, _) -> acc +. s.grid_seconds) 0. grids
        in
        Metrics.incr m_cells;
        Log.infof "characterize" "cell %s [%s]: %d arcs in %.2f s"
          cell.Cell.name corner_tag (List.length e.Library.arcs) seconds;
        e)
      per_cell
  in
  Library.create ~lib_name:name ~axes entries

let library_report ?backend ?cells ?jobs ?surrogate ~axes ~name ~scenario () =
  let report = report_create () in
  let lib =
    library ?backend ?cells ~report ?jobs ?surrogate ~axes ~name ~scenario ()
  in
  (lib, report)

let fresh_library ?backend ?cells ?jobs ?surrogate ~axes () =
  library ?backend ?cells ?jobs ?surrogate ~axes ~name:"initial"
    ~scenario:(Scenario.scenario Scenario.fresh) ()
