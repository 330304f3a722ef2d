module Device = Aging_physics.Device
module Metrics = Aging_obs.Metrics

(* Solver-health counters mirrored into the process-global registry so a
   whole build's solver effort is visible without threading [diagnostics]
   records through every caller. *)
let m_transients = Metrics.counter "engine.transients"
let m_steps = Metrics.counter "engine.steps"
let m_rejected = Metrics.counter "engine.rejected_steps"
let m_non_converged = Metrics.counter "engine.non_converged_steps"
let m_jacobians = Metrics.counter "engine.jacobian_refreshes"
let m_newton = Metrics.counter "engine.newton_iterations"
let m_singular = Metrics.counter "engine.singular_systems"

type options = {
  dt_min : float;
  dt_max : float;
  dv_target : float;
  dv_reject : float;
  newton_tol : float;
  newton_max : int;
  settle_time : float;
  c_floor : float;
  fd_jacobian : bool;
  settle_exit_dv : float;
}

let default_options =
  {
    dt_min = 5e-14;
    dt_max = 4e-11;
    dv_target = 4e-3;
    dv_reject = 8e-2;
    newton_tol = 1e-5;
    newton_max = 25;
    settle_time = 3e-9;
    c_floor = 2e-17;
    fd_jacobian = false;
    settle_exit_dv = 1e-7;
  }

type diagnostics = {
  rejected_steps : int;
  non_converged_steps : int;
  settle_non_converged : int;
  jacobian_refreshes : int;
  newton_iterations : int;
  singular_systems : int;
}

type result = {
  times : float array;
  node_voltages : float array array; (* node_voltages.(node).(sample) *)
  n_steps : int;
  diag : diagnostics;
}

(* ------------------------------------------------------------------ *)
(* Dense LU with an explicit factor/solve split.  The matrix lives in a
   flat row-major float array (unboxed storage, no row indirection); the
   factor overwrites it in place, storing the multipliers below the
   diagonal and the row swaps in [piv], so one factorization serves any
   number of right-hand sides — the heart of the chord-Newton factor
   reuse.  A pivot below [pivot_floor] means the system is singular; that
   is surfaced to the caller instead of clamped, so the step-rejection
   path (not a fabricated solution) handles it. *)

let pivot_floor = 1e-30

(* [lu_factor a piv n] factors the n x n matrix [a] in place.  Returns
   [false] (leaving [a] partially clobbered) when a pivot collapses. *)
let lu_factor a piv n =
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let k0 = !k in
    let pivot = ref k0 in
    for i = k0 + 1 to n - 1 do
      if Float.abs a.((i * n) + k0) > Float.abs a.((!pivot * n) + k0) then
        pivot := i
    done;
    piv.(k0) <- !pivot;
    if !pivot <> k0 then begin
      let rk = k0 * n and rp = !pivot * n in
      for j = 0 to n - 1 do
        let tmp = a.(rk + j) in
        a.(rk + j) <- a.(rp + j);
        a.(rp + j) <- tmp
      done
    end;
    let akk = a.((k0 * n) + k0) in
    if Float.abs akk < pivot_floor then ok := false
    else begin
      for i = k0 + 1 to n - 1 do
        let f = a.((i * n) + k0) /. akk in
        a.((i * n) + k0) <- f;
        if f <> 0. then
          for j = k0 + 1 to n - 1 do
            a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((k0 * n) + j))
          done
      done;
      incr k
    end
  done;
  !ok

(* [lu_solve a piv n b] back-substitutes one right-hand side in place.
   The running sums accumulate directly into [b] (unboxed float-array
   stores): a local [float ref] would box every assignment under the
   non-flambda compiler, and this runs once per Newton iteration. *)
let lu_solve a piv n b =
  for k = 0 to n - 1 do
    let p = piv.(k) in
    if p <> k then begin
      let tmp = b.(k) in
      b.(k) <- b.(p);
      b.(p) <- tmp
    end
  done;
  for i = 1 to n - 1 do
    let row = i * n in
    for j = 0 to i - 1 do
      b.(i) <- b.(i) -. (a.(row + j) *. b.(j))
    done
  done;
  for i = n - 1 downto 0 do
    let row = i * n in
    for j = i + 1 to n - 1 do
      b.(i) <- b.(i) -. (a.(row + j) *. b.(j))
    done;
    b.(i) <- b.(i) /. a.(row + i)
  done

let clamp_voltage v =
  let lo = -0.3 and hi = Device.vdd +. 0.3 in
  if v < lo then lo else if v > hi then hi else v

let transient ?(options = default_options) ?(init = []) ?stop_when circuit
    ~drives ~t_stop =
  if t_stop <= 0. then invalid_arg "Engine.transient: t_stop <= 0";
  let n_nodes = Circuit.node_count circuit in
  let driven = Array.make n_nodes None in
  List.iter
    (fun (n, stim) ->
      if n = Circuit.gnd || n = Circuit.vdd then
        invalid_arg "Engine.transient: cannot drive a rail";
      if n < 0 || n >= n_nodes then
        invalid_arg "Engine.transient: drive on unknown node";
      if driven.(n) <> None then
        invalid_arg "Engine.transient: duplicate drive";
      driven.(n) <- Some stim)
    drives;
  List.iter
    (fun (n, _) ->
      if n = Circuit.gnd || n = Circuit.vdd then
        invalid_arg "Engine.transient: init on a rail";
      if n < 0 || n >= n_nodes then
        invalid_arg "Engine.transient: init on unknown node";
      if driven.(n) <> None then
        invalid_arg "Engine.transient: init on a driven node")
    init;
  let is_free n = n <> Circuit.gnd && n <> Circuit.vdd && driven.(n) = None in
  let free = ref [] in
  for n = n_nodes - 1 downto 0 do
    if is_free n then free := n :: !free
  done;
  let free = Array.of_list !free in
  let nf = Array.length free in
  let slot = Array.make n_nodes (-1) in
  Array.iteri (fun i n -> slot.(n) <- i) free;
  let cap =
    Array.map
      (fun n -> Float.max options.c_floor (Circuit.capacitance circuit n))
      free
  in
  (* Devices unpacked into parallel arrays: the residual and Jacobian
     assembly loops touch flat int/float/params arrays only.  Devices whose
     drain AND source both sit on rails or driven nodes inject nothing
     into any free-node residual, so they are dropped here once instead of
     skipped in every evaluation (side-input pull networks of multi-input
     cells are full of them). *)
  let mosfets =
    Array.of_list
      (List.filter
         (fun (m : Circuit.mos) -> is_free m.Circuit.d || is_free m.Circuit.s)
         (Circuit.mosfets circuit))
  in
  let n_mos = Array.length mosfets in
  (* Each device compiled once (see {!Mosfet.inst}): constants folded, and
     the strength memo's hits are bit-identical to recomputation, so the
     compilation never perturbs results. *)
  let mos_inst =
    Array.map (fun (m : Circuit.mos) -> Mosfet.inst m.Circuit.dev) mosfets
  in
  let mos_g = Array.map (fun (m : Circuit.mos) -> m.Circuit.g) mosfets in
  let mos_d = Array.map (fun (m : Circuit.mos) -> m.Circuit.d) mosfets in
  let mos_s = Array.map (fun (m : Circuit.mos) -> m.Circuit.s) mosfets in
  let resistors =
    Array.of_list
      (List.filter
         (fun (r : Circuit.res) -> is_free r.Circuit.a || is_free r.Circuit.b)
         (Circuit.resistors circuit))
  in
  let n_res = Array.length resistors in
  let res_a = Array.map (fun (r : Circuit.res) -> r.Circuit.a) resistors in
  let res_b = Array.map (fun (r : Circuit.res) -> r.Circuit.b) resistors in
  let res_g = Array.map (fun (r : Circuit.res) -> 1. /. r.Circuit.ohms) resistors in
  (* Driven nodes flattened out of the option array so the per-step loops
     walk a dense int array instead of scanning every node. *)
  let driven_nodes =
    Array.of_list
      (List.filter (fun n -> driven.(n) <> None)
         (List.init n_nodes (fun n -> n)))
  in
  let n_driven = Array.length driven_nodes in
  let driven_stims =
    Array.map
      (fun n -> match driven.(n) with Some f -> f | None -> assert false)
      driven_nodes
  in
  (* Voltage vector over all nodes; rails pinned, driven set per time. *)
  let v = Array.make n_nodes 0. in
  v.(Circuit.vdd) <- Device.vdd;
  List.iter (fun (n, value) -> v.(n) <- value) init;
  let set_driven time =
    for k = 0 to n_driven - 1 do
      v.(driven_nodes.(k)) <- driven_stims.(k) time
    done
  in
  (* Current injected into each free node by the static elements.  The
     device evaluations go through {!Mosfet.channel_currents_into}: the
     batch call keeps the model's floats unboxed across the module
     boundary, and the scratch arrays below receive the results. *)
  let inject = Array.make nf 0. in
  let mos_i = Array.make (max 1 n_mos) 0. in
  let mos_deriv = Array.make (max 1 (4 * n_mos)) 0. in
  let compute_injections () =
    Array.fill inject 0 nf 0.;
    Mosfet.channel_currents_into mos_inst mos_g mos_d mos_s v mos_i;
    for k = 0 to n_mos - 1 do
      let i_ds = mos_i.(k) in
      let sd = slot.(mos_d.(k)) and ss = slot.(mos_s.(k)) in
      if sd >= 0 then inject.(sd) <- inject.(sd) -. i_ds;
      if ss >= 0 then inject.(ss) <- inject.(ss) +. i_ds
    done;
    for k = 0 to n_res - 1 do
      let i = (v.(res_a.(k)) -. v.(res_b.(k))) *. res_g.(k) in
      let sa = slot.(res_a.(k)) and sb = slot.(res_b.(k)) in
      if sa >= 0 then inject.(sa) <- inject.(sa) -. i;
      if sb >= 0 then inject.(sb) <- inject.(sb) +. i
    done
  in
  let rejected = ref 0 in
  let forced = ref 0 in
  let settle_forced = ref 0 in
  let jac_refreshes = ref 0 in
  let newton_iters = ref 0 in
  let singular = ref 0 in
  let f0 = Array.make nf 0. in
  (* Conductance part of the Jacobian (∂residual/∂v minus the cap/dt
     diagonal): device linearization at some recent operating point.  The
     chord method holds it fixed across Newton iterations AND across
     accepted steps; it is re-assembled only when convergence stalls or a
     factorization collapses.  [lu] is [g + diag(cap/dt)] factored for one
     specific [dt]; a dt change refactors (O(nf^3) on a handful of nodes,
     cheap) without re-linearizing the devices. *)
  let g = Array.make (max 1 (nf * nf)) 0. in
  let lu = Array.make (max 1 (nf * nf)) 0. in
  let piv = Array.make (max 1 nf) 0 in
  let g_valid = ref false in
  let lu_dt = Array.make 1 Float.nan in
  let lu_ok = ref false in
  let fd_base = Array.make nf 0. in
  (* The analytic assembly is fused with the injection computation:
     [Mosfet.channel_current_deriv] returns the current alongside the
     gradient, so one device pass fills both [g] and [inject].  A refresh
     therefore costs about as much as a plain residual evaluation. *)
  let assemble_g_analytic () =
    Array.fill g 0 (nf * nf) 0.;
    Array.fill inject 0 nf 0.;
    Mosfet.channel_current_derivs_into mos_inst mos_g mos_d mos_s v mos_deriv;
    for k = 0 to n_mos - 1 do
      let sg = slot.(mos_g.(k))
      and sd = slot.(mos_d.(k))
      and ss = slot.(mos_s.(k)) in
      let o = 4 * k in
      let i_ds = mos_deriv.(o) in
      let di_dvg = mos_deriv.(o + 1) in
      let di_dvd = mos_deriv.(o + 2) in
      let di_dvs = mos_deriv.(o + 3) in
      (* residual(d) gains +i_ds, residual(s) gains -i_ds. *)
      if sd >= 0 then begin
        inject.(sd) <- inject.(sd) -. i_ds;
        let row = sd * nf in
        if sg >= 0 then g.(row + sg) <- g.(row + sg) +. di_dvg;
        g.(row + sd) <- g.(row + sd) +. di_dvd;
        if ss >= 0 then g.(row + ss) <- g.(row + ss) +. di_dvs
      end;
      if ss >= 0 then begin
        inject.(ss) <- inject.(ss) +. i_ds;
        let row = ss * nf in
        if sg >= 0 then g.(row + sg) <- g.(row + sg) -. di_dvg;
        if sd >= 0 then g.(row + sd) <- g.(row + sd) -. di_dvd;
        g.(row + ss) <- g.(row + ss) -. di_dvs
      end
    done;
    for k = 0 to n_res - 1 do
      let sa = slot.(res_a.(k)) and sb = slot.(res_b.(k)) in
      let gc = res_g.(k) in
      let i = (v.(res_a.(k)) -. v.(res_b.(k))) *. gc in
      if sa >= 0 then begin
        inject.(sa) <- inject.(sa) -. i;
        g.((sa * nf) + sa) <- g.((sa * nf) + sa) +. gc;
        if sb >= 0 then g.((sa * nf) + sb) <- g.((sa * nf) + sb) -. gc
      end;
      if sb >= 0 then begin
        inject.(sb) <- inject.(sb) +. i;
        g.((sb * nf) + sb) <- g.((sb * nf) + sb) +. gc;
        if sa >= 0 then g.((sb * nf) + sa) <- g.((sb * nf) + sa) -. gc
      end
    done
  in
  (* Finite-difference fallback (kept for differential testing): FD of the
     injection currents around the current iterate; the linear cap/dt term
     is added exactly at factor time, so this matches the analytic path's
     split.  Restores [inject] to the base-point values on exit, matching
     the analytic path's fused contract. *)
  let assemble_g_fd () =
    let dv = 1e-4 in
    compute_injections ();
    for i = 0 to nf - 1 do
      fd_base.(i) <- inject.(i)
    done;
    for j = 0 to nf - 1 do
      let saved = v.(free.(j)) in
      v.(free.(j)) <- saved +. dv;
      compute_injections ();
      v.(free.(j)) <- saved;
      for i = 0 to nf - 1 do
        g.((i * nf) + j) <- (fd_base.(i) -. inject.(i)) /. dv
      done
    done;
    Array.blit fd_base 0 inject 0 nf
  in
  (* After [refresh_g], [inject] holds the injections at the current [v]. *)
  let refresh_g () =
    incr jac_refreshes;
    if options.fd_jacobian then assemble_g_fd () else assemble_g_analytic ();
    g_valid := true;
    lu_ok := false;
    lu_dt.(0) <- Float.nan
  in
  (* [ensure_lu dt] makes [lu] hold a valid factorization of
     [g + diag(cap/dt)], re-assembling [g] first if it was invalidated.
     Returns [false] when the system is singular. *)
  let ensure_lu dt =
    if not !g_valid then refresh_g ();
    if (not !lu_ok) || lu_dt.(0) <> dt then begin
      Array.blit g 0 lu 0 (nf * nf);
      for i = 0 to nf - 1 do
        lu.((i * nf) + i) <- lu.((i * nf) + i) +. (cap.(i) /. dt)
      done;
      lu_ok := lu_factor lu piv nf;
      lu_dt.(0) <- dt;
      if not !lu_ok then begin
        incr singular;
        (* The linearization itself may be stale garbage; force a fresh
           assembly before the next attempt. *)
        g_valid := false
      end
    end;
    !lu_ok
  in
  let delta = Array.make nf 0. in
  (* One-float scratch for the max-|change| reductions: a [float ref]
     accumulator would box every assignment (non-flambda), and these
     loops run once or twice per Newton iteration / accepted step. *)
  let fmax = Array.make 1 0. in
  (* One BE step attempt with chord Newton: the residual is re-evaluated
     every iteration against the carried LU factor; the Jacobian is only
     re-linearized when the iteration stalls (2 iterations without this
     step having refreshed, then every 4).  [last_iters] feeds the refresh
     heuristic in [march]: a step that needed several iterations predicts
     a fast-moving operating point, so the next step re-linearizes up
     front (a refresh costs one fused device pass, no more than the
     residual it replaces). *)
  let last_iters = ref 0 in
  let newton_step v_prev dt =
    let refreshed_at = ref (-1) in
    let rec iterate k =
      if k >= options.newton_max then begin
        last_iters := k;
        false
      end
      else begin
        incr newton_iters;
        if
          (not !g_valid)
          || (!refreshed_at < 0 && k >= 2)
          || (!refreshed_at >= 0 && k - !refreshed_at >= 4)
        then begin
          g_valid := false;
          refreshed_at := k
        end;
        let fresh = not !g_valid in
        if not (ensure_lu dt) then begin
          last_iters := k + 1;
          false
        end
        else begin
          (* [refresh_g] (run inside [ensure_lu] when the linearization was
             invalid) leaves [inject] current; otherwise evaluate it here —
             either way one device pass per iteration. *)
          if not fresh then compute_injections ();
          for i = 0 to nf - 1 do
            f0.(i) <- (cap.(i) *. (v.(free.(i)) -. v_prev.(i)) /. dt) -. inject.(i)
          done;
          for i = 0 to nf - 1 do
            delta.(i) <- -.f0.(i)
          done;
          lu_solve lu piv nf delta;
          let max_step = 0.3 in
          fmax.(0) <- 0.;
          for i = 0 to nf - 1 do
            let a = Float.abs delta.(i) in
            if a > fmax.(0) then fmax.(0) <- a
          done;
          let biggest = fmax.(0) in
          let damp = if biggest > max_step then max_step /. biggest else 1.0 in
          for i = 0 to nf - 1 do
            v.(free.(i)) <- clamp_voltage (v.(free.(i)) +. (damp *. delta.(i)))
          done;
          if biggest *. damp < options.newton_tol then begin
            last_iters := k + 1;
            true
          end
          else iterate (k + 1)
        end
      end
    in
    if nf = 0 then true else iterate 0
  in
  (* Append-only sample store: times and the full node-voltage vector per
     accepted step, in flat growable arrays (one blit per sample, no
     per-step boxed snapshots). *)
  let rec_cap = ref 256 in
  let rec_n = ref 0 in
  let rec_times = ref (Array.make !rec_cap 0.) in
  let rec_v = ref (Array.make (!rec_cap * n_nodes) 0.) in
  let record time =
    if !rec_n = !rec_cap then begin
      let cap' = 2 * !rec_cap in
      let t' = Array.make cap' 0. in
      Array.blit !rec_times 0 t' 0 !rec_n;
      let v' = Array.make (cap' * n_nodes) 0. in
      Array.blit !rec_v 0 v' 0 (!rec_n * n_nodes);
      rec_cap := cap';
      rec_times := t';
      rec_v := v'
    end;
    !rec_times.(!rec_n) <- time;
    Array.blit v 0 !rec_v (!rec_n * n_nodes) n_nodes;
    incr rec_n
  in
  let n_steps = ref 0 in
  let v_prev = Array.make nf 0. in
  let v_old = Array.make nf 0. in
  let v_saved = Array.make n_nodes 0. in
  (* March from [t_from] to [t_to]; [recording] controls sample capture.
     Each step starts Newton from a linear extrapolation of the last two
     accepted states (a first-order predictor): on the smooth ramps that
     dominate characterization the predicted point is already near the
     solution, so most steps converge in one iteration even with a stale
     chord Jacobian.  A non-recording march is the pseudo-transient DC
     settle: once the state is stationary at the dt ceiling
     ([settle_exit_dv], a few steps in a row) the operating point is
     reached and the remaining settle window is skipped. *)
  (* [t] / [dt] / [dt_prev] live in one-float arrays for the same
     boxing reason as [fmax]: they are reassigned every step. *)
  let march ~t_from ~t_to ~dt0 ~recording =
    let t = Array.make 1 t_from in
    let dt = Array.make 1 dt0 in
    let dt_prev = Array.make 1 0. in
    let have_old = ref false in
    let stopped = ref false in
    let quiet = ref 0 in
    if recording then record t.(0);
    while (not !stopped) && t.(0) < t_to -. 1e-18 do
      let dt_now = Float.min dt.(0) (t_to -. t.(0)) in
      let t_next = t.(0) +. dt_now in
      for i = 0 to nf - 1 do
        v_prev.(i) <- v.(free.(i))
      done;
      Array.blit v 0 v_saved 0 n_nodes;
      set_driven t_next;
      let driven_change =
        fmax.(0) <- 0.;
        for k = 0 to n_driven - 1 do
          let n = driven_nodes.(k) in
          let a = Float.abs (v.(n) -. v_saved.(n)) in
          if a > fmax.(0) then fmax.(0) <- a
        done;
        fmax.(0)
      in
      (* A step that needed > 2 iterations means the operating point is
         moving faster than the carried linearization tracks: pay one
         up-front refresh next attempt instead of extra iterations. *)
      if !last_iters > 2 then g_valid := false;
      if !have_old && dt_prev.(0) > 0. then begin
        let ratio = dt_now /. dt_prev.(0) in
        for i = 0 to nf - 1 do
          v.(free.(i)) <-
            clamp_voltage (v_prev.(i) +. (ratio *. (v_prev.(i) -. v_old.(i))))
        done
      end;
      let converged = newton_step v_prev dt_now in
      let free_change =
        fmax.(0) <- 0.;
        for i = 0 to nf - 1 do
          let a = Float.abs (v.(free.(i)) -. v_prev.(i)) in
          if a > fmax.(0) then fmax.(0) <- a
        done;
        fmax.(0)
      in
      let change = Float.max driven_change free_change in
      if (not converged || change > options.dv_reject)
         && dt_now > options.dt_min then begin
        (* Reject: restore state and retry with half the step. *)
        incr rejected;
        Array.blit v_saved 0 v 0 n_nodes;
        dt.(0) <- Float.max options.dt_min (dt_now /. 2.)
      end
      else begin
        (* Accepting a step that Newton did not converge (only possible at
           the dt floor) is recorded rather than hidden: callers decide
           whether the run is trustworthy. *)
        if not converged then incr (if recording then forced else settle_forced);
        t.(0) <- t_next;
        incr n_steps;
        Array.blit v_prev 0 v_old 0 nf;
        dt_prev.(0) <- dt_now;
        have_old := true;
        if recording then record t.(0);
        if (not recording) && options.settle_exit_dv > 0. then begin
          if converged && dt_now >= options.dt_max *. 0.999
             && change < options.settle_exit_dv
          then incr quiet
          else quiet := 0;
          if !quiet >= 3 then stopped := true
        end;
        (* Step-size ramp: near-stationary stretches (edge tails, the quiet
           window before an input moves) regrow dt aggressively; active
           regions grow gently so [dv_target] keeps being met without
           rejections.  Growth never loosens accuracy by itself — a too-big
           step is still caught by [dv_reject] and retried at half size. *)
        if change < options.dv_target *. 0.25 then
          dt.(0) <- Float.min options.dt_max (dt_now *. 2.2)
        else if change < options.dv_target then
          dt.(0) <- Float.min options.dt_max (dt_now *. 1.6)
        else if change > options.dv_target *. 8. then
          dt.(0) <- Float.max options.dt_min (dt_now /. 2.);
        match stop_when with
        | Some f when recording && f t.(0) v -> stopped := true
        | Some _ | None -> ()
      end
    done
  in
  (* DC settle with inputs frozen at their t=0 values.  The settle starts
     cautiously (the seed state may be far from the operating point); the
     recording march starts at the dt ceiling, because it begins from the
     settled — stationary — state, and re-ramping from a small dt would
     burn a handful of steps on a provably quiet stretch. *)
  set_driven 0.;
  march ~t_from:(-.options.settle_time) ~t_to:0. ~dt0:(options.dt_max /. 10.)
    ~recording:false;
  march ~t_from:0. ~t_to:t_stop ~dt0:options.dt_max ~recording:true;
  let n_samples = !rec_n in
  let times = Array.sub !rec_times 0 n_samples in
  let rv = !rec_v in
  let node_voltages =
    Array.init n_nodes (fun n ->
        Array.init n_samples (fun s -> rv.((s * n_nodes) + n)))
  in
  Metrics.incr m_transients;
  Metrics.incr ~by:!n_steps m_steps;
  Metrics.incr ~by:!rejected m_rejected;
  Metrics.incr ~by:(!forced + !settle_forced) m_non_converged;
  Metrics.incr ~by:!jac_refreshes m_jacobians;
  Metrics.incr ~by:!newton_iters m_newton;
  Metrics.incr ~by:!singular m_singular;
  {
    times;
    node_voltages;
    n_steps = !n_steps;
    diag =
      {
        rejected_steps = !rejected;
        non_converged_steps = !forced;
        settle_non_converged = !settle_forced;
        jacobian_refreshes = !jac_refreshes;
        newton_iterations = !newton_iters;
        singular_systems = !singular;
      };
  }

let waveform r node =
  { Waveform.times = r.times; values = r.node_voltages.(node) }

let final_voltage r node =
  let vs = r.node_voltages.(node) in
  vs.(Array.length vs - 1)

let settled_state r = Array.map (fun vs -> vs.(0)) r.node_voltages

let steps r = r.n_steps
let diagnostics r = r.diag
let converged r = r.diag.non_converged_steps = 0
