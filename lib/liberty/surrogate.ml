module Scenario = Aging_physics.Scenario
module Device = Aging_physics.Device
module Ridge = Aging_fit.Ridge
module Metrics = Aging_obs.Metrics
module Log = Aging_obs.Log

(* [fit.points.simulated] counts the seed lattice, [fit.points.predicted]
   the points served by the model and [fit.points.fallback] the points
   simulated because the model was not trusted there; the three partition
   every surrogate grid.  The histograms record relative residuals: the
   model's own leave-one-out estimate, and the true prediction error seen
   at fallback points (where both the prediction and the simulation
   exist). *)
let m_fit_simulated = Metrics.counter "fit.points.simulated"
let m_fit_predicted = Metrics.counter "fit.points.predicted"
let m_fit_fallback = Metrics.counter "fit.points.fallback"
let m_fit_models = Metrics.counter "fit.models"
let m_fit_degraded = Metrics.counter "fit.models.degraded"
let m_fit_cert_reused = Metrics.counter "fit.certs.reused"

let residual_bounds =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 0.01; 0.03; 0.1; 0.3; 1. |]

let h_fit_loo = Metrics.histogram ~bounds:residual_bounds "fit.residual.loo"

let h_fit_fallback_err =
  Metrics.histogram ~bounds:residual_bounds "fit.residual.fallback"

type config = { tol : float; sample : int }

let config ?(tol = 0.02) ?(sample = 12) () =
  if sample < 4 then invalid_arg "Surrogate.config: sample must be >= 4";
  if not (Float.is_finite tol) then
    invalid_arg "Surrogate.config: tol must be finite";
  { tol; sample }

(* Threshold shifts of reference minimum-width devices of both
   polarities: the geometry in which anchors are near or far from a
   corner.  Mobility losses are monotone functions of the same stress and
   add nothing. *)
let shift scenario =
  let vth d = (Scenario.age_device scenario d).Device.delta_vth in
  (vth (Device.pmos ~w:Device.w_min), vth (Device.nmos ~w:Device.w_min))

let d2 (ap, an) (bp, bn) =
  let dp = ap -. bp and dn = an -. bn in
  (dp *. dp) +. (dn *. dn)

type anchor = { shift : float * float; lib : Library.t }

type t = {
  cfg : config;
  anchors : anchor array;
  dmax2 : float;  (* largest squared shift distance between two anchors *)
  digest : string;
  certs : (string * int * int, float array array) Hashtbl.t;
      (* replayed-anchor certificates by (model, reference, held-out
         anchor); shared by every cell fit of a build (fanned out over
         domains) and by parallel corner builds, hence [lock] *)
  lock : Mutex.t;
}

let create cfg ~anchors =
  let anchors =
    Array.of_list
      (List.map (fun (scenario, lib) -> { shift = shift scenario; lib }) anchors)
  in
  let dmax2 =
    Array.fold_left
      (fun acc a ->
        Array.fold_left (fun acc b -> Float.max acc (d2 a.shift b.shift)) acc
          anchors)
      0. anchors
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (Printf.sprintf "tol=%h;sample=%d" cfg.tol cfg.sample
            :: List.map (fun a -> Io.to_string a.lib) (Array.to_list anchors))))
  in
  { cfg; anchors; dmax2; digest; certs = Hashtbl.create 64;
    lock = Mutex.create () }

let digest t = t.digest

type prov = Seeded | Predicted | Fell_back

(* Grids smaller than this are too small to pool: the seed lattice leaves
   little or nothing to predict, and too few rows for the ratio fit. *)
let min_points = 8

(* Proximity bandwidth, as a fraction of the largest anchor distance: only
   anchors whose Gaussian weight in this bandwidth is non-negligible are
   replayed — a certificate earned at a far corner says nothing about the
   conditions the target sees. *)
let proximity_frac = 0.45
let proximity_cutoff = 1e-4

(* [k] distinct indices spread over [0 .. n-1], endpoints always
   included. *)
let spread_indices n k =
  if k >= n then List.init n Fun.id
  else if k <= 1 then [ 0 ]
  else
    List.sort_uniq compare
      (List.init k (fun i ->
           int_of_float
             (Float.round
                (float_of_int i *. float_of_int (n - 1)
                /. float_of_int (k - 1)))))

(* About [sample] seeds as a (slew x load) sub-grid, slew-heavy (the
   curvature lives in the slew direction), both axes >= 2 so the fit sees
   every boundary. *)
let seed_lattice ns nl sample =
  let sample = max 4 (min sample (ns * nl)) in
  let rs =
    let ideal =
      int_of_float (Float.round (sqrt (float_of_int sample *. 4. /. 3.)))
    in
    max 2 (min ns ideal)
  in
  let cs = max 2 (min nl (sample / rs)) in
  (spread_indices ns rs, spread_indices nl cs)

(* Slew-heavy tensor degrees sized to the row count: parameters must stay
   well under the rows or the leave-one-out residuals (inflated by
   1/(1 - h_ii)) turn into noise and the gate rejects everything.  [3;1]
   is deliberately absent — cubic wiggle in slew with an affine load axis
   fits the seeds and misses between them. *)
let degrees n =
  let budget = max 4 (n * 3 / 5) in
  if 12 <= budget then [| 3; 2 |]
  else if 9 <= budget then [| 2; 2 |]
  else if 6 <= budget then [| 2; 1 |]
  else [| 1; 1 |]

let fit_ratio data =
  let n = List.length data in
  if n < 4 then Error (Ridge.Too_few_rows { rows = n; params = 4 })
  else
    Ridge.fit ~degrees:(degrees n)
      ~rows:(Array.of_list (List.map fst data))
      ~targets:(Array.of_list (List.map snd data))
      ()

(* The arc's (delay, slew) values in every anchor, or [None] when an
   anchor lacks the arc or was characterized on other axes. *)
let anchor_tables t ~cell ~from_pin ~to_pin ~dir ~(axes : Axes.t) =
  let pick a =
    match Library.find a.lib cell with
    | None -> None
    | Some e -> (
      match Library.arc_of e ~from_pin ~to_pin with
      | None -> None
      | Some arc ->
        let d, s =
          match dir with
          | Library.Rise -> (arc.Library.delay_rise, arc.Library.slew_rise)
          | Library.Fall -> (arc.Library.delay_fall, arc.Library.slew_fall)
        in
        if d.Nldm.slews = axes.Axes.slews && d.Nldm.loads = axes.Axes.loads
        then Some (d.Nldm.values, s.Nldm.values)
        else None)
  in
  let tabs = Array.map pick t.anchors in
  if Array.for_all Option.is_some tabs then Some (Array.map Option.get tabs)
  else None

(* The pooled ratio scheme on one grid (see the interface).  Seeds are
   simulated first on the lattice; then one ratio model per metric is
   fitted and gated by its interval and by the replayed-anchor
   certificate; the remaining points are served or simulated in row-major
   order. *)
let fit_grid t ~scenario ~model_key ~(axes : Axes.t) ~tabs ~delays ~slews
    ~simulate ~prov =
  let { tol; sample } = t.cfg in
  let ns = Array.length axes.Axes.slews and nl = Array.length axes.Axes.loads in
  let seed_rows, seed_cols = seed_lattice ns nl sample in
  let is_seed = Array.make_matrix ns nl false in
  List.iter
    (fun i -> List.iter (fun j -> is_seed.(i).(j) <- true) seed_cols)
    seed_rows;
  let ok = Array.make_matrix ns nl false in
  for i = 0 to ns - 1 do
    for j = 0 to nl - 1 do
      if is_seed.(i).(j) then begin
        ok.(i).(j) <- simulate i j;
        prov.(i).(j) <- Seeded;
        Metrics.incr m_fit_simulated
      end
    done
  done;
  (* Log slew (the axis is log-spaced over two decades), raw load in fF
     (delay is affine in load). *)
  let x i j = [| log axes.Axes.slews.(i); axes.Axes.loads.(j) *. 1e15 |] in
  let seed_pts =
    List.concat_map (fun i -> List.map (fun j -> (i, j)) seed_cols) seed_rows
  in
  let target = shift scenario in
  let na = Array.length t.anchors in
  let dist a = d2 t.anchors.(a).shift target in
  let ref_idx = ref 0 in
  for a = 1 to na - 1 do
    if dist a < dist !ref_idx then ref_idx := a
  done;
  let ref_idx = !ref_idx in
  (* Only the two anchors nearest the target are replayed; an empty list
     certifies nothing. *)
  let held_out =
    let h2 = proximity_frac *. proximity_frac *. t.dmax2 in
    List.init na Fun.id
    |> List.filter_map (fun a ->
           let d = dist a in
           if a <> ref_idx && exp (-.d /. (2. *. h2)) > proximity_cutoff then
             Some (d, a)
           else None)
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 2)
  in
  let metric_model metric pick measured =
    let ref_tbl = pick tabs.(ref_idx) in
    let ref_at i j =
      let rv = ref_tbl.(i).(j) in
      if rv > 1e-18 then Some rv else None
    in
    (* Ratio of anchor [a]'s table to the reference; drops non-finite
       values and sign flips near zero. *)
    let ratio_at a i j =
      Option.bind (ref_at i j) (fun rv ->
          let v = (pick tabs.(a)).(i).(j) in
          if Float.is_finite v && v /. rv > 1e-12 then Some (v /. rv) else None)
    in
    (* Replayed-anchor certificate: the whole scheme re-run at anchor [a],
       whose table is known.  It is two-sided: a point the replayed gate
       served records its actual error, a point it would not serve records
       infinity — "not measurable here" must read as unsafe, or the
       regions where the model is shaky would pass on a zero.  A failed
       replay fit certifies nothing. *)
    let cert_of a =
      let cert = Array.make_matrix ns nl 0. in
      let seeds =
        List.filter_map
          (fun (i, j) -> Option.map (fun y -> (x i j, y)) (ratio_at a i j))
          seed_pts
      in
      (match fit_ratio seeds with
      | Error _ -> Array.iter (fun r -> Array.fill r 0 nl Float.infinity) cert
      | Ok m ->
        for i = 0 to ns - 1 do
          for j = 0 to nl - 1 do
            if not is_seed.(i).(j) then
              cert.(i).(j) <-
                (match ratio_at a i j with
                | Some y when Ridge.confidence m (x i j) <= tol ->
                  Float.abs (Ridge.predict m (x i j) -. y) /. y
                | _ -> Float.infinity)
          done
        done);
      cert
    in
    let cert_for a =
      let k = (model_key metric, ref_idx, a) in
      match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.certs k) with
      | Some c ->
        Metrics.incr m_fit_cert_reused;
        c
      | None ->
        (* Replay outside the lock: it is pure, so two domains racing on
           one key waste one replay at worst. *)
        let c = cert_of a in
        Mutex.protect t.lock (fun () ->
            match Hashtbl.find_opt t.certs k with
            | Some c' ->
              Metrics.incr m_fit_cert_reused;
              c'
            | None ->
              Hashtbl.add t.certs k c;
              c)
    in
    let cert =
      Array.make_matrix ns nl (if held_out = [] then Float.infinity else 0.)
    in
    List.iter
      (fun (_, a) ->
        let ca = cert_for a in
        for i = 0 to ns - 1 do
          for j = 0 to nl - 1 do
            cert.(i).(j) <- Float.max cert.(i).(j) ca.(i).(j)
          done
        done)
      held_out;
    let target_seeds =
      List.filter_map
        (fun (i, j) ->
          if not ok.(i).(j) then None
          else
            Option.bind (ref_at i j) (fun rv ->
                let y = measured.(i).(j) /. rv in
                if Float.is_finite y && y > 1e-12 then Some (x i j, y)
                else None))
        seed_pts
    in
    match fit_ratio target_seeds with
    | Error e ->
      Metrics.incr m_fit_degraded;
      Log.debugf "characterize" "surrogate fit degraded (%s): %s"
        (model_key metric) (Ridge.error_to_string e);
      None
    | Ok m ->
      Metrics.incr m_fit_models;
      Array.iter
        (fun r -> Metrics.observe h_fit_loo (Float.abs r))
        (Ridge.loo_residuals m);
      let serve i j =
        Option.bind (ref_at i j) (fun rv ->
            if cert.(i).(j) <= tol && Ridge.confidence m (x i j) <= tol then
              Some (Ridge.predict m (x i j) *. rv)
            else None)
      in
      let raw i j =
        Option.map (fun rv -> Ridge.predict m (x i j) *. rv) (ref_at i j)
      in
      Some (serve, raw)
  in
  let dm = metric_model "delay" fst delays in
  let sm = metric_model "slew" snd slews in
  let serve model i j =
    Option.bind model (fun (serve, _) -> serve i j)
  in
  for i = 0 to ns - 1 do
    for j = 0 to nl - 1 do
      if not is_seed.(i).(j) then
        match (serve dm i j, serve sm i j) with
        | Some d, Some s ->
          delays.(i).(j) <- d;
          slews.(i).(j) <- s;
          prov.(i).(j) <- Predicted;
          Metrics.incr m_fit_predicted
        | _ -> (
          let sim_ok = simulate i j in
          Metrics.incr m_fit_fallback;
          (* The fallback simulated the truth: record how far off the
             model would have been. *)
          match Option.bind dm (fun (_, raw) -> raw i j) with
          | Some pd when sim_ok && delays.(i).(j) > 0. ->
            Metrics.observe h_fit_fallback_err
              (Float.abs (pd -. delays.(i).(j)) /. delays.(i).(j))
          | _ -> ())
    done
  done

let grid t ~scenario ~cell ~from_pin ~to_pin ~dir ~(axes : Axes.t) ~delays
    ~slews ~simulate =
  let ns = Array.length axes.Axes.slews and nl = Array.length axes.Axes.loads in
  let prov = Array.make_matrix ns nl Fell_back in
  (match anchor_tables t ~cell ~from_pin ~to_pin ~dir ~axes with
  | Some tabs when t.cfg.tol > 0. && ns * nl >= min_points && t.dmax2 > 0. ->
    let model_key metric =
      Printf.sprintf "%s/%s->%s/%s/%s" cell from_pin to_pin
        (match dir with Library.Rise -> "rise" | Library.Fall -> "fall")
        metric
    in
    fit_grid t ~scenario ~model_key ~axes ~tabs ~delays ~slews ~simulate ~prov
  | _ ->
    for i = 0 to ns - 1 do
      for j = 0 to nl - 1 do
        ignore (simulate i j : bool);
        Metrics.incr m_fit_fallback
      done
    done);
  prov
