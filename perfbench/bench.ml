(* The paper-pipeline benchmark.

   Four workloads, one per stage of the paper's flow, each driving the
   layers through their public functions:

     libchar     cold characterization of the full catalog on the paper's
                 7x7 axes (fresh corner plus seed-drawn aged corners),
                 then a reload of every library from disk          (Sec. 4.1)
     signoff     guardband checks, 7 designs x 4 methods x 2 corners (Fig. 5)
     synth       traditional and aging-aware synthesis of DSP and FFT
                                                               (Fig. 6a/b)
     imagechain  gate-level DCT -> IDCT of seed-drawn 16x16 images with the
                 fresh and the worst-case library            (Fig. 6c/7)

   Usage (normally through perfbench/run.py, which builds this program):

     bench.exe --workload W --seed N --seconds S --trace 0|1

   A run first characterizes, into a private cache under _perfbench/, the
   libraries its workload consumes — with the code under test, never from
   the repository's _libcache — then times [setup] several times (loading
   those libraries from disk, building the designs) and reports the
   median, then measures rounds of work for at least S seconds.  Every
   pass checks its own outputs; a failed check counts the operation as
   failed.
   The private cache is removed before the program exits: the cache
   fingerprint covers configuration and physics but not engine code, so a
   leftover cache would measure another commit's libraries.

   [--trace 0] prints the end-to-end metrics, the same three for every
   workload: [work_per_s] (median over the pass's rounds of the workload's
   own unit per second: grid points, guardband checks, input
   kilo-instances through both synthesis flows, image pixels), [setup_s]
   and [peak_rss_mb].  [--trace 1] runs an untraced pass and then a traced
   one (setup included), in which every call into a layer is wrapped in a
   span that records the deltas of the layer counters and of the GC; the
   per-layer metrics are derived from those records (plus a few fixed-size
   probes) and the records are written once, at the end, to
   _perfbench/trace-W-seedN.json.  The traced run also reports the workload's own
   figures under their names (e.g. [signoff.check_ms.p90]).  A layer a
   workload bypasses reports 0.

   The surrogate characterization mode and the [serve] daemon are out of
   scope: the surrogate may be deleted (it keeps its own gate in
   bench/main.exe), and service scale is no longer a goal of the project.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module Axes = Aging_liberty.Axes
module Characterize = Aging_liberty.Characterize
module Io = Aging_liberty.Io
module Library = Aging_liberty.Library
module Nldm = Aging_liberty.Nldm
module Catalog = Aging_cells.Catalog
module Cell = Aging_cells.Cell
module Scenario = Aging_physics.Scenario
module Degradation = Aging_physics.Degradation
module Netlist = Aging_netlist.Netlist
module Timing = Aging_sta.Timing
module Event_sim = Aging_sim.Event_sim
module Designs = Aging_designs.Designs
module Image = Aging_image.Image
module Synthetic = Aging_image.Synthetic
module Deglib = Aging_core.Degradation_library
module Guardband = Aging_core.Guardband
module Aging_synthesis = Aging_core.Aging_synthesis
module System_eval = Aging_core.System_eval
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Json = Aging_obs.Json
module Runtime = Aging_obs.Runtime
module Rng = Aging_util.Rng

let now = Span.elapsed

(* Run outputs (quality-of-results and trace files) and the private
   library caches, relative to the checkout root. *)
let out_dir = "_perfbench"
let jobs = max 1 (Domain.recommended_domain_count ())

(* ------------------------------ statistics ------------------------------ *)

(* Linear interpolation between closest ranks; [nan] on an empty list. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Median wall time of [reps] calls of [f], in seconds. *)
let median_time ~reps f =
  median
    (List.init reps (fun _ ->
         snd (timed (fun () -> ignore (Sys.opaque_identity (f ()))))))

(* ------------------------------- tracing -------------------------------- *)

let traced_prefixes =
  [ "engine."; "characterize.points."; "sta."; "cache."; "synth." ]

let layer_counters () =
  List.filter_map
    (function
      | name, Metrics.Counter_value v
        when List.exists
               (fun prefix -> String.starts_with ~prefix name)
               traced_prefixes ->
        Some (name, v)
      | _ -> None)
    (Metrics.snapshot ())

type call = {
  layer : string;
  name : string;
  start : float;  (** s, monotonic clock *)
  dur : float;  (** s *)
  deltas : (string * int) list;  (** changed layer counters *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let tracing = ref false
let calls : call list ref = ref []

(* One call into a layer.  Untraced it is just [f ()]; traced it runs in a
   span and records the counter and GC deltas across it, in memory. *)
let call layer name f =
  if not !tracing then f ()
  else begin
    let c0 = layer_counters () and g0 = Gc.quick_stat () and t0 = now () in
    let result = Span.with_ ~attrs:[ ("layer", layer) ] name f in
    let dur = now () -. t0 in
    let g1 = Gc.quick_stat () and c1 = layer_counters () in
    let deltas =
      List.filter_map
        (fun (n, v1) ->
          let v0 = Option.value (List.assoc_opt n c0) ~default:0 in
          if v1 <> v0 then Some (n, v1 - v0) else None)
        c1
    in
    calls :=
      {
        layer;
        name;
        start = t0;
        dur;
        deltas;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: !calls;
    result
  end

let calls_named name = List.filter (fun c -> c.name = name) !calls

let delta counter cs =
  float_of_int
    (List.fold_left
       (fun acc c -> acc + Option.value (List.assoc_opt counter c.deltas) ~default:0)
       0 cs)

let memo_hit_frac cs =
  let hits = delta "cache.memo_hit" cs and misses = delta "cache.memo_miss" cs in
  ratio hits (hits +. misses)

let lookups_per_pass cs = ratio (delta "sta.lookups" cs) (delta "sta.analyses" cs)

let call_json c =
  Json.Obj
    [
      ("layer", Json.String c.layer);
      ("name", Json.String c.name);
      ("start", Json.of_float c.start);
      ("seconds", Json.of_float c.dur);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) c.deltas));
      ("minor_words", Json.of_float c.minor_words);
      ("promoted_words", Json.of_float c.promoted_words);
      ("major_collections", Json.Int c.major_collections);
    ]

(* --------------------------- files and checks --------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let check ok what =
  if not ok then Printf.eprintf "perfbench: check failed: %s\n%!" what;
  ok

(* Quality-of-results outputs: recorded per run, not gated. *)
let qor : (string, Json.t) Hashtbl.t = Hashtbl.create 64
let note_qor key v = Hashtbl.replace qor key v

let note_qor_float key v =
  note_qor key (if Float.is_finite v then Json.Float v else Json.String (string_of_float v))

(* Entry equality field by field ([Library.entry] holds the catalog cell,
   whose closures forbid whole-entry [=]). *)
let libraries_equal a b =
  List.length (Library.entries a) = List.length (Library.entries b)
  && List.for_all2
       (fun (ea : Library.entry) (eb : Library.entry) ->
         ea.Library.indexed_name = eb.Library.indexed_name
         && ea.Library.setup_time = eb.Library.setup_time
         && ea.Library.pin_caps = eb.Library.pin_caps
         && ea.Library.arcs = eb.Library.arcs)
       (Library.entries a) (Library.entries b)

let arc_tables (a : Library.arc) =
  [ a.Library.delay_rise; a.Library.delay_fall; a.Library.slew_rise; a.Library.slew_fall ]

(* Every entry's tables have the axes' shape and only finite values. *)
let finite_tables lib =
  let axes = Library.axes lib in
  let shape = (Array.length axes.Axes.slews, Array.length axes.Axes.loads) in
  List.for_all
    (fun (e : Library.entry) ->
      List.for_all
        (fun a ->
          List.for_all
            (fun t ->
              Nldm.dimensions t = shape
              && Nldm.fold (fun ok v -> ok && Float.is_finite v) true t)
            (arc_tables a))
        e.Library.arcs)
    (Library.entries lib)

let has_cells lib cells =
  List.length (Library.entries lib) = List.length cells
  && List.for_all (fun (c : Cell.t) -> Library.find lib c.Cell.name <> None) cells

let digest lib = Digest.to_hex (Digest.string (Io.to_string lib))

(* Distinct catalog cells instantiated by some netlist. *)
let cells_of netlists =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (nl : Netlist.t) ->
      Array.iter
        (fun (i : Netlist.instance) ->
          Hashtbl.replace seen (Netlist.base_cell_name i.Netlist.cell_name) ())
        nl.Netlist.instances)
    netlists;
  List.map Catalog.find_exn
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))

let instances (nl : Netlist.t) = Array.length nl.Netlist.instances

(* A seed-drawn aged corner of the paper's 11x11 grid, distinct from the
   fresh corner and from [avoid]. *)
let draw_corner rng ~avoid =
  let grid = Array.of_list (Scenario.grid ()) in
  let rec go () =
    let c = grid.(Rng.int rng (Array.length grid)) in
    if List.exists (Scenario.equal c) (Scenario.fresh :: avoid) then go () else c
  in
  go ()

(* ------------------------------- probes --------------------------------- *)

(* NLDM lookup cost over a fixed sample: 32 in-grid and 32 off-grid
   (extrapolated) OPCs on every delay table of the library. *)
let nldm_lookup_ns lib =
  let axes = Library.axes lib in
  let s = axes.Axes.slews and l = axes.Axes.loads in
  let s0 = s.(0) and s1 = s.(Array.length s - 1) in
  let l0 = l.(0) and l1 = l.(Array.length l - 1) in
  let points =
    Array.init 64 (fun i ->
        let f = float_of_int (i * 13 mod 32) /. 32. in
        if i < 32 then (s0 +. (f *. (s1 -. s0)), l1 -. (f *. (l1 -. l0)))
        else (s1 *. (1.1 +. f), l1 *. (1.2 +. f)))
  in
  let tables =
    Array.of_list
      (List.concat_map
         (fun (e : Library.entry) ->
           List.concat_map
             (fun (a : Library.arc) -> [ a.Library.delay_rise; a.Library.delay_fall ])
             e.Library.arcs)
         (Library.entries lib))
  in
  let per_batch = Array.length tables * Array.length points in
  let batch () =
    let acc = ref 0. in
    Array.iter
      (fun t ->
        Array.iter (fun (slew, load) -> acc := !acc +. Nldm.lookup t ~slew ~load) points)
      tables;
    !acc
  in
  if per_batch = 0 then 0.
  else
    let reps = max 1 (200_000 / per_batch) in
    median
      (List.init 7 (fun _ ->
           let (), dt =
             timed (fun () ->
                 for _ = 1 to reps do
                   ignore (Sys.opaque_identity (batch ()))
                 done)
           in
           dt *. 1e9 /. float_of_int (reps * per_batch)))

(* Single-point transient cost: six representative single- and
   multi-stage cells, both output directions, two paper-grid OPCs, under
   worst-case aging.  A flip-flop launches a rising Q through its
   positive-unate arc and a falling Q through the other, as in a library
   build.  Returns the p50 in us, the points tried and the points whose
   measurement raised. *)
let arc_measure_probe () =
  let scenario = Scenario.scenario Scenario.worst_case in
  let s = Axes.paper.Axes.slews and l = Axes.paper.Axes.loads in
  let opcs = [ (s.(2), l.(2)); (s.(4), l.(4)) ] in
  let arc_for (cell : Cell.t) dir =
    match cell.Cell.kind with
    | Cell.Combinational -> List.hd (Cell.arcs cell)
    | Cell.Flipflop ->
      List.find
        (fun (a : Cell.arc) -> a.Cell.positive_unate = (dir = Library.Rise))
        (Cell.arcs cell)
  in
  let failed = ref 0 in
  let samples =
    List.concat_map
      (fun name ->
        let cell = Catalog.find_exn name in
        List.concat_map
          (fun dir ->
            let arc = arc_for cell dir in
            List.concat_map
              (fun (slew, load) ->
                List.init 3 (fun _ ->
                    let t0 = now () in
                    match
                      Characterize.arc_measure Characterize.default_backend ~scenario ~cell
                        ~arc ~dir ~slew ~load
                    with
                    | _ -> [ 1e6 *. (now () -. t0) ]
                    | exception Failure msg ->
                      ignore (check false msg);
                      incr failed;
                      []))
              opcs)
          [ Library.Rise; Library.Fall ])
      [ "INV_X1"; "NAND2_X1"; "NOR2_X1"; "FA_X1"; "DFF_X1"; "XOR2_X1" ]
  in
  (median (List.concat samples), List.length samples, !failed)

(* Io round trip of every library file in [dir]: median ms per load and
   per save. *)
let io_probe dir =
  let files =
    List.filter (fun f -> Filename.check_suffix f ".alib") (Array.to_list (Sys.readdir dir))
  in
  let loads, saves =
    List.split
      (List.map
         (fun f ->
           let path = Filename.concat dir f in
           let lib, load_s = timed (fun () -> Io.load path) in
           let tmp = Filename.concat dir "io-probe.tmp" in
           let (), save_s = timed (fun () -> Io.save tmp lib) in
           Sys.remove tmp;
           (1e3 *. load_s, 1e3 *. save_s))
         files)
  in
  (median loads, median saves)

(* STA cost on fixed designs: topological preparation (ms, summed over the
   designs) and one timing pass per instance (us). *)
let sta_probe ~library designs =
  let prepare_s, pass_s =
    List.split
      (List.map
         (fun nl ->
           let structure = Timing.prepare_structure nl in
           ( median_time ~reps:3 (fun () -> Timing.prepare_structure nl),
             median_time ~reps:3 (fun () -> Timing.analyze ~structure ~library nl) ))
         designs)
  in
  let insts = float_of_int (List.fold_left (fun a nl -> a + instances nl) 0 designs) in
  (1e3 *. sum prepare_s, 1e6 *. sum pass_s /. insts)

(* ------------------------------- passes --------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  private_dir : string;  (** under [out_dir], removed on exit *)
}

(* What one measured pass reports to [drive]. *)
type pass = {
  wall : float;  (** s *)
  work : float;  (** workload units (points, checks, kinst, pixels) *)
  rates : float list;  (** work per second of each round, oldest first *)
  rss_mb : float;  (** peak RSS once the pass had done its minimum work *)
  op_ms : float list;  (** per-operation wall times *)
  attempted : int;
  failed : int;
}

type result = {
  r_attempted : int;
  r_failed : int;
  r_metrics : (string * string * float) list;  (** name, unit, value *)
}

let peak_rss_mb () =
  let t = Runtime.totals () in
  Option.value t.Runtime.hwm_mb ~default:t.Runtime.heap_mb

(* Runs one workload: [prepare] once (untimed), [setup] [setup_reps] times
   (timed; the median is [setup_s]), then the pass(es).
   [named] maps a pass to the workload's own end-to-end figures (reported
   with the per-layer metrics); [layers] derives the per-layer metrics
   after the traced pass. *)
let drive opts ~setup_reps ~prepare ~setup ~pass ~named ~layers =
  prepare ();
  (* Only the last context is kept: earlier ones are garbage by the time
     the next setup runs, as in a real flow.  The pass then starts from a
     collected heap.  No collection between setups: hundreds of forced
     collections, for a setup of microseconds, change how the GC paces the
     pass. *)
  let rec setups i acc =
    let ctx, dt = timed (fun () -> setup i) in
    if i + 1 = setup_reps then (ctx, dt :: acc) else setups (i + 1) (dt :: acc)
  in
  let ctx, setup_times = setups 0 [] in
  Gc.full_major ();
  let setup_s = median setup_times in
  let untraced = pass ctx ~seconds:opts.seconds in
  Printf.eprintf "perfbench: %s: %d ops in %.2f s; work/s by round: %s\n%!" opts.workload
    untraced.attempted untraced.wall
    (String.concat " " (List.map (Printf.sprintf "%.4g") untraced.rates));
  if not opts.trace then
    {
      r_attempted = untraced.attempted;
      r_failed = untraced.failed;
      r_metrics =
        [
          ("work_per_s", "1/s", median untraced.rates);
          ("setup_s", "s", setup_s);
          ("peak_rss_mb", "MB", untraced.rss_mb);
        ];
    }
  else begin
    Span.reset ();
    Span.set_recording true;
    tracing := true;
    let ctx = setup (List.length setup_times) in
    let g0 = Gc.quick_stat () in
    let traced = pass ctx ~seconds:opts.seconds in
    let g1 = Gc.quick_stat () in
    tracing := false;
    Span.set_recording false;
    let extra_attempted, extra_failed, layer_metrics = layers ctx traced in
    let attempted = untraced.attempted + traced.attempted + extra_attempted in
    let failed = untraced.failed + traced.failed + extra_failed in
    {
      r_attempted = attempted;
      r_failed = failed;
      r_metrics =
        named untraced
        @ layer_metrics
        @ [
            ("gc.minor_words", "words", g1.Gc.minor_words -. g0.Gc.minor_words);
            ("gc.promoted_words", "words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
            ( "gc.major_collections",
              "count",
              float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
            ( "trace.overhead_frac",
              "frac",
              ratio (median untraced.rates) (median traced.rates) -. 1. );
            ("failed_frac", "frac", ratio (float_of_int failed) (float_of_int attempted));
          ];
    }
  end

(* A pass's bookkeeping, filled in by its operations. *)
type tally = {
  mutable ops : float list;
  mutable work_done : float;
  mutable tried : int;
  mutable bad : int;
}

let tally () = { ops = []; work_done = 0.; tried = 0; bad = 0 }

let op t ~ok ~ms ~work =
  t.ops <- ms :: t.ops;
  t.work_done <- t.work_done +. work;
  t.tried <- t.tried + 1;
  if not ok then t.bad <- t.bad + 1

(* Runs rounds of [step] until [seconds] have elapsed and [enough ()]
   holds.  Throughput is reported as the median over rounds, so a stall
   of the shared host that hits a minority of the rounds does not move
   it.  Peak RSS is read when [enough ()] first holds: how many further
   rounds fit in the time depends on the host's speed, and the high-water
   mark creeps up with every round from GC pacing alone. *)
let rounds t ~seconds ~enough step =
  let t0 = now () in
  let rss_mb = ref None in
  let rec go rates =
    let w0 = t.work_done and r0 = now () in
    step ();
    let rates = ratio (t.work_done -. w0) (now () -. r0) :: rates in
    if !rss_mb = None && enough () then rss_mb := Some (peak_rss_mb ());
    if now () -. t0 < seconds || not (enough ()) then go rates else rates
  in
  let rates = go [] in
  {
    rss_mb = Option.value !rss_mb ~default:(peak_rss_mb ());
    wall = now () -. t0;
    work = t.work_done;
    rates = List.rev rates;
    op_ms = t.ops;
    attempted = t.tried;
    failed = t.bad;
  }

(* ------------------------------- libchar -------------------------------- *)

module Libchar = struct
  (* One corner build.  Its library is kept only for the corner the pool
     probe rebuilds, so memory does not grow with the number of corners. *)
  type build = {
    corner : Scenario.corner;
    b_wall : float;
    cpu : float;  (** process CPU seconds, all domains *)
    report : Characterize.report;
    lib : Library.t option;
  }

  type ctx = { dir : string; mutable builds : build list }

  let catalog = Catalog.all ()
  let manager ?(jobs = jobs) dir = Deglib.create ~cache_dir:dir ~jobs ()

  (* A cold characterization sets up little: the configuration
     fingerprint of a manager on an empty private cache (the manager
     creates the directory on its first write). *)
  let setup opts i =
    let dir = Filename.concat opts.private_dir (Printf.sprintf "libchar-%d" i) in
    ignore (Deglib.fingerprint (manager dir));
    { dir; builds = [] }

  let cpu_now () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime

  (* Each operation builds one corner through a fresh manager (cold memo)
     into the private cache, reloads it from disk through a second manager
     and compares the two.  Corners: the fresh one, then seed-drawn aged
     ones until the time is up, at least three in all. *)
  let pass opts ctx ~seconds =
    let rng = Rng.create (Int64.of_int opts.seed) in
    let t = tally () in
    let used = ref [] in
    let step () =
      let corner =
        if !used = [] then Scenario.fresh else draw_corner rng ~avoid:!used
      in
      used := corner :: !used;
      let deglib = manager ctx.dir in
      let cpu0 = cpu_now () in
      let lib, dt =
        timed (fun () ->
            call "liberty" "deglib.corner" (fun () -> Deglib.corner deglib corner))
      in
      let cpu = cpu_now () -. cpu0 in
      let back =
        call "io" "deglib.reload" (fun () -> Deglib.corner (manager ctx.dir) corner)
      in
      let report, points =
        match Deglib.build_reports deglib with
        | (_, r) :: _ -> (r, (Characterize.report_totals r).Characterize.points)
        | [] -> (Characterize.report_create (), 0)
      in
      let ok =
        check (points > 0) "corner was not characterized"
        && check (has_cells lib catalog) "library lacks catalog cells"
        && check (finite_tables lib) "non-finite or misshapen table"
        && check (libraries_equal lib back) "disk reload differs"
      in
      note_qor ("libchar.digest." ^ Scenario.suffix corner) (Json.String (digest lib));
      let lib = if List.length !used = 2 then Some lib else None in
      ctx.builds <- { corner; b_wall = dt; cpu; report; lib } :: ctx.builds;
      op t ~ok ~ms:(1e3 *. dt) ~work:(float_of_int points)
    in
    rounds t ~seconds ~enough:(fun () -> List.length !used >= 3) step

  let named (p : pass) =
    [
      ("libchar.points_per_s", "1/s", median p.rates);
      ("libchar.corner_s.p50", "s", 1e-3 *. median p.op_ms);
    ]

  let layers opts ctx (p : pass) =
    let builds = calls_named "deglib.corner" in
    let points = p.work in
    let steps = delta "engine.steps" builds in
    let newton = delta "engine.newton_iterations" builds in
    let reports = List.map (fun b -> b.report) ctx.builds in
    let totals = List.map Characterize.report_totals reports in
    let total f = float_of_int (List.fold_left (fun a x -> a + f x) 0 totals) in
    let cell_s =
      List.concat_map
        (fun (r : Characterize.report) ->
          let per_cell = Hashtbl.create 64 in
          List.iter
            (fun (s : Characterize.arc_stats) ->
              let cell = s.Characterize.stat_cell in
              let prev = Option.value (Hashtbl.find_opt per_cell cell) ~default:0. in
              Hashtbl.replace per_cell cell (prev +. s.Characterize.grid_seconds))
            r.Characterize.stats;
          Hashtbl.fold (fun _ v acc -> v :: acc) per_cell [])
        reports
    in
    let par_wall = sum (List.map (fun b -> b.b_wall) ctx.builds) in
    let par_cpu = sum (List.map (fun b -> b.cpu) ctx.builds) in
    (* The first aged corner again, sequentially, into its own cache: the
       pool's speedup at a real size and its determinism guarantee. *)
    let target, target_lib =
      List.find_map (fun b -> Option.map (fun lib -> (b, lib)) b.lib) ctx.builds |> Option.get
    in
    let seq = manager ~jobs:1 (Filename.concat opts.private_dir "libchar-seq") in
    let minor0 = Gc.minor_words () in
    let newtons () =
      Option.value (Metrics.value_by_name "engine.newton_iterations") ~default:0.
    in
    let newton0 = newtons () in
    let seq_lib, seq_s = timed (fun () -> Deglib.corner seq target.corner) in
    let seq_newton = newtons () -. newton0 in
    let seq_minor = Gc.minor_words () -. minor0 in
    let identical =
      check (libraries_equal seq_lib target_lib) "jobs=1 and jobs=N libraries differ"
    in
    let load_ms, save_ms = io_probe ctx.dir in
    let n_builds = float_of_int (List.length builds) in
    let arc_us, arc_tried, arc_failed = arc_measure_probe () in
    ( 1 + arc_tried,
      (if identical then 0 else 1) + arc_failed,
      [
        ("spice.steps_per_point", "count", ratio steps points);
        ("spice.newton_per_step", "count", ratio newton steps);
        ( "spice.jacobians_per_point",
          "count",
          ratio (delta "engine.jacobian_refreshes" builds) points );
        ("spice.rejected_per_point", "count", ratio (delta "engine.rejected_steps" builds) points);
        ("spice.minor_words_per_newton", "words", ratio seq_minor seq_newton);
        ("spice.arc_measure_us.p50", "us", arc_us);
        ("characterize.points", "count", ratio points n_builds);
        ( "characterize.retried_frac",
          "frac",
          ratio (total (fun x -> x.Characterize.recovered)) points );
        ( "characterize.repaired_frac",
          "frac",
          ratio (total (fun x -> x.Characterize.degraded)) points );
        ("characterize.cell_s.max", "s", List.fold_left Float.max 0. cell_s);
        ("pool.cpu_util", "frac", ratio par_cpu (par_wall *. float_of_int jobs));
        ("pool.speedup", "x", ratio seq_s target.b_wall);
        ("io.load_ms", "ms", load_ms);
        ("io.save_ms", "ms", save_ms);
        ("cache.memo_hit_frac", "frac", memo_hit_frac !calls);
        ("nldm.lookup_ns", "ns", nldm_lookup_ns target_lib);
      ] )
end

(* -------------------------------- signoff ------------------------------- *)

module Signoff = struct
  type ctx = {
    deglib : Deglib.t;
    designs : (string * Netlist.t) list;
    corners : Scenario.corner list;
    mutable by_method : (string * float) list;  (** method, check ms *)
  }

  let methods =
    [
      ("static", fun ~deglib ~corner nl -> Guardband.static ~deglib ~corner nl);
      ( "vth_only",
        fun ~deglib ~corner nl ->
          Guardband.static ~mode:Degradation.Vth_only ~deglib ~corner nl );
      ("single_opc", fun ~deglib ~corner nl -> Guardband.single_opc ~deglib ~corner nl);
      ("initial_cp", fun ~deglib ~corner nl -> Guardband.initial_cp_only ~deglib ~corner nl);
    ]

  (* The worst case and one seed-drawn corner. *)
  let corners opts =
    let rng = Rng.create (Int64.of_int opts.seed) in
    [ Scenario.worst_case; draw_corner rng ~avoid:[ Scenario.worst_case ] ]

  let cells = lazy (cells_of (List.map snd (Designs.all ())))
  let manager opts =
    Deglib.create ~cells:(Lazy.force cells) ~cache_dir:opts.private_dir ~jobs ()

  let load deglib corners =
    ignore (Deglib.fresh deglib);
    List.iter
      (fun c ->
        ignore (Deglib.corner deglib c);
        ignore (Deglib.corner ~mode:Degradation.Vth_only deglib c))
      corners

  let prepare opts () = load (manager opts) (corners opts)

  let setup opts _ =
    let deglib = manager opts in
    let corners = corners opts in
    load deglib corners;
    { deglib; designs = Designs.all (); corners; by_method = [] }

  (* Sweeps of corners x designs x methods, repeated until the time is up
     and at least 100 checks ran; every sweep must reproduce the first bit
     for bit, and Vth_only must stay below Full at the worst case. *)
  let pass _opts ctx ~seconds =
    let t = tally () in
    let first = ref None in
    let sweep () =
      let results =
        List.concat_map
          (fun corner ->
            List.concat_map
              (fun (design, nl) ->
                List.map
                  (fun (meth, f) ->
                    let e, dt =
                      timed (fun () ->
                          call "guardband" ("guardband." ^ meth) (fun () ->
                              f ~deglib:ctx.deglib ~corner nl))
                    in
                    ctx.by_method <- (meth, 1e3 *. dt) :: ctx.by_method;
                    let g = e.Guardband.guardband in
                    ((corner, design, meth), g, dt))
                  methods)
              ctx.designs)
          ctx.corners
      in
      let reference = Option.value !first ~default:results in
      if !first = None then first := Some results;
      let gb key = List.find_map (fun (k, g, _) -> if k = key then Some g else None) results in
      List.iter2
        (fun ((corner, design, meth), g, dt) (_, g0, _) ->
          let ok =
            check (Float.is_finite g) (Printf.sprintf "%s/%s guardband not finite" design meth)
            && check
                 (Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float g0))
                 (Printf.sprintf "%s/%s guardband differs between sweeps" design meth)
            && (meth <> "vth_only"
               || (not (Scenario.equal corner Scenario.worst_case))
               ||
               match gb (corner, design, "static") with
               | Some full -> check (g < full) (Printf.sprintf "%s: Vth_only >= Full" design)
               | None -> false)
          in
          op t ~ok ~ms:(1e3 *. dt) ~work:1.;
          note_qor_float
            (Printf.sprintf "signoff.guardband_ps.%s.%s.%s" (Scenario.suffix corner) design
               meth)
            (g *. 1e12))
        results reference
    in
    rounds t ~seconds ~enough:(fun () -> t.tried >= 100) sweep

  let named (p : pass) =
    [
      ("signoff.checks_per_s", "1/s", median p.rates);
      ("signoff.check_ms.p50", "ms", median p.op_ms);
      ("signoff.check_ms.p90", "ms", quantile 0.9 p.op_ms);
    ]

  let layers opts ctx (_ : pass) =
    let method_p50 meth =
      median
        (List.filter_map (fun (m, ms) -> if m = meth then Some ms else None) ctx.by_method)
    in
    let fresh = Deglib.fresh ctx.deglib in
    let prepare_ms, pass_us = sta_probe ~library:fresh (List.map snd ctx.designs) in
    let checks = !calls in
    let load_ms, save_ms = io_probe opts.private_dir in
    ( 0,
      0,
      [
        ("sta.pass_us_per_inst", "us", pass_us);
        ("sta.lookups_per_pass", "count", lookups_per_pass checks);
        ("sta.prepare_structure_ms", "ms", prepare_ms);
        ("guardband.static_ms.p50", "ms", method_p50 "static");
        ("guardband.vth_only_ms.p50", "ms", method_p50 "vth_only");
        ("guardband.single_opc_ms.p50", "ms", method_p50 "single_opc");
        ("guardband.initial_cp_ms.p50", "ms", method_p50 "initial_cp");
        ("io.load_ms", "ms", load_ms);
        ("io.save_ms", "ms", save_ms);
        ("cache.memo_hit_frac", "frac", memo_hit_frac checks);
        ("nldm.lookup_ns", "ns", nldm_lookup_ns fresh);
      ] )
end

(* --------------------------------- synth -------------------------------- *)

module Synth = struct
  type ctx = { deglib : Deglib.t; designs : Netlist.t list }

  let manager opts = Deglib.create ~cache_dir:opts.private_dir ~jobs ()

  let prepare opts () =
    let deglib = manager opts in
    ignore (Deglib.fresh deglib);
    ignore (Deglib.worst_case deglib)

  let setup opts _ =
    let deglib = manager opts in
    ignore (Deglib.fresh deglib);
    ignore (Deglib.worst_case deglib);
    { deglib; designs = [ Designs.dsp (); Designs.fft () ] }

  (* Seed-drawn input vectors; the synthesized netlists must reproduce the
     RTL's cycle-accurate outputs on them. *)
  let cycles = 24

  let stimulus opts (nl : Netlist.t) =
    let rng = Rng.create (Rng.derive (Int64.of_int opts.seed) (instances nl)) in
    let vectors =
      Array.init cycles (fun _ ->
          List.map (fun (p, _) -> (p, Rng.bool rng)) nl.Netlist.input_ports)
    in
    fun n -> vectors.(n mod cycles)

  let outputs nl ~stimulus =
    Array.map (List.sort compare) (Event_sim.run_functional nl ~cycles ~stimulus)

  let pass opts ctx ~seconds =
    let t = tally () in
    let step () =
      List.iter
        (fun (rtl : Netlist.t) ->
          let c, dt =
            timed (fun () ->
                call "synth" "aging_synthesis.run" (fun () ->
                    Aging_synthesis.run ~deglib:ctx.deglib rtl))
          in
          let stimulus = stimulus opts rtl in
          let reference = outputs rtl ~stimulus in
          let name = rtl.Netlist.design_name in
          let reduction = Aging_synthesis.guardband_reduction c in
          let ok =
            check (outputs c.Aging_synthesis.traditional ~stimulus = reference)
              (name ^ ": traditional netlist differs from RTL")
            && check (outputs c.Aging_synthesis.aware ~stimulus = reference)
                 (name ^ ": aware netlist differs from RTL")
            && check (Float.is_finite reduction) (name ^ ": non-finite guardband reduction")
          in
          note_qor_float ("synth.reduction." ^ name) reduction;
          note_qor_float ("synth.area_overhead." ^ name) (Aging_synthesis.area_overhead c);
          op t ~ok ~ms:(1e3 *. dt) ~work:(2. *. float_of_int (instances rtl) /. 1e3))
        ctx.designs
    in
    rounds t ~seconds ~enough:(fun () -> true) step

  let named (p : pass) = [ ("synth.kinst_per_s", "1/s", median p.rates) ]

  let layers opts ctx (p : pass) =
    let runs = calls_named "aging_synthesis.run" in
    let iterations =
      ratio (float_of_int (List.length runs)) (float_of_int (List.length ctx.designs))
    in
    (* Aging_synthesis.run compiles against the fresh library first and the
       aged one second; their spans are children of the traced call, kept
       until the next [Span.reset]. *)
    let rec compiles (s : Span.t) =
      if s.Span.name = "synth.compile" then [ s.Span.duration ]
      else List.concat_map compiles s.Span.children
    in
    let per_run =
      List.filter_map
        (fun (s : Span.t) ->
          match compiles s with
          | fresh :: aged :: _ when s.Span.name = "aging_synthesis.run" -> Some (fresh, aged)
          | _ -> None)
        (Span.roots ())
    in
    let compile_s pick = ratio (sum (List.map pick per_run)) iterations in
    let fresh = Deglib.fresh ctx.deglib in
    let lookup_ns = nldm_lookup_ns fresh in
    let lookups = delta "sta.lookups" runs in
    let prepare_ms, pass_us = sta_probe ~library:fresh ctx.designs in
    let load_ms, save_ms = io_probe opts.private_dir in
    ( 0,
      0,
      [
        ("synth.compile_s.fresh", "s", compile_s fst);
        ("synth.compile_s.aged", "s", compile_s snd);
        ("synth.sta_passes", "count", ratio (delta "sta.analyses" runs) iterations);
        ("synth.sta_lookups", "count", ratio lookups iterations);
        ("synth.sta_share_est", "frac", ratio (lookups *. lookup_ns *. 1e-9) p.wall);
        ("synth.rounds", "count", ratio (delta "synth.rounds" runs) iterations);
        ("sta.pass_us_per_inst", "us", pass_us);
        ("sta.lookups_per_pass", "count", lookups_per_pass runs);
        ("sta.prepare_structure_ms", "ms", prepare_ms);
        ("io.load_ms", "ms", load_ms);
        ("io.save_ms", "ms", save_ms);
        ("cache.memo_hit_frac", "frac", memo_hit_frac runs);
        ("nldm.lookup_ns", "ns", lookup_ns);
      ] )
end

(* ------------------------------ imagechain ------------------------------ *)

module Imagechain = struct
  type ctx = {
    deglib : Deglib.t;
    fresh : Event_sim.t * Event_sim.t;  (** DCT, IDCT *)
    aged : Event_sim.t * Event_sim.t;
    period : float;
    prepare_ms : float list;
    mutable process_s : (string * float) list;
  }

  let width = 16
  let cells = lazy (cells_of [ Designs.dct (); Designs.idct () ])
  let manager opts =
    Deglib.create ~cells:(Lazy.force cells) ~cache_dir:opts.private_dir ~jobs ()

  let prepare opts () =
    let deglib = manager opts in
    ignore (Deglib.fresh deglib);
    ignore (Deglib.worst_case deglib)

  (* Both transforms simulated with both libraries, clocked at the fresh
     STA period. *)
  let setup opts _ =
    let deglib = manager opts in
    let fresh_lib = Deglib.fresh deglib and aged_lib = Deglib.worst_case deglib in
    let dct = Designs.dct () and idct = Designs.idct () in
    let prep library nl =
      timed (fun () ->
          call "sim" "event_sim.prepare" (fun () -> Event_sim.prepare ~library nl))
    in
    let (fd, t1), (fi, t2) = (prep fresh_lib dct, prep fresh_lib idct) in
    let (ad, t3), (ai, t4) = (prep aged_lib dct, prep aged_lib idct) in
    {
      deglib;
      fresh = (fd, fi);
      aged = (ad, ai);
      period = Float.max (Event_sim.min_period fd) (Event_sim.min_period fi);
      prepare_ms = List.map (fun s -> 1e3 *. s) [ t1; t2; t3; t4 ];
      process_s = [];
    }

  let pass opts ctx ~seconds =
    let rng = Rng.create (Int64.of_int opts.seed) in
    let t = tally () in
    let pixels = float_of_int (width * width) in
    let step () =
      let original =
        Synthetic.blobs ~seed:(Rng.int64 rng) ~width ~height:width ()
      in
      let reference = System_eval.reference_image original in
      let run label (dct, idct) =
        let out, dt =
          timed (fun () ->
              call "sim" ("system_eval.process_image." ^ label) (fun () ->
                  System_eval.process_image ~dct ~idct ~period:ctx.period original))
        in
        ctx.process_s <- (label, dt) :: ctx.process_s;
        (out, dt)
      in
      let fresh_out, fresh_dt = run "fresh" ctx.fresh in
      op t
        ~ok:
          (check (Image.equal fresh_out reference)
             "fresh chain output differs from reference_image")
        ~ms:(1e3 *. fresh_dt) ~work:pixels;
      let aged_out, aged_dt = run "aged" ctx.aged in
      let psnr = Image.psnr ~reference:original aged_out in
      op t
        ~ok:(check (Float.is_finite psnr) "aged PSNR not finite")
        ~ms:(1e3 *. aged_dt) ~work:pixels;
      let n = t.tried / 2 in
      note_qor_float
        (Printf.sprintf "imagechain.psnr_db.fresh.%d" n)
        (Image.psnr ~reference:original fresh_out);
      note_qor_float (Printf.sprintf "imagechain.psnr_db.aged.%d" n) psnr
    in
    rounds t ~seconds ~enough:(fun () -> true) step

  let named (p : pass) = [ ("imagechain.pixels_per_s", "1/s", median p.rates) ]

  let layers opts ctx (_ : pass) =
    let process label =
      median (List.filter_map (fun (l, s) -> if l = label then Some s else None) ctx.process_s)
    in
    let fresh = Deglib.fresh ctx.deglib in
    let prepare_ms, pass_us =
      sta_probe ~library:fresh
        [ Event_sim.design (fst ctx.fresh); Event_sim.design (snd ctx.fresh) ]
    in
    let sims = !calls in
    let load_ms, save_ms = io_probe opts.private_dir in
    ( 0,
      0,
      [
        ("sim.prepare_ms", "ms", median ctx.prepare_ms);
        ("sim.process_s.fresh", "s", process "fresh");
        ("sim.process_s.aged", "s", process "aged");
        ("sta.pass_us_per_inst", "us", pass_us);
        ("sta.lookups_per_pass", "count", lookups_per_pass sims);
        ("sta.prepare_structure_ms", "ms", prepare_ms);
        ("io.load_ms", "ms", load_ms);
        ("io.save_ms", "ms", save_ms);
        ("nldm.lookup_ns", "ns", nldm_lookup_ns fresh);
      ] )
end

(* ------------------------------ the metrics ----------------------------- *)

(* Every per-layer metric, in report order, with its unit.  Each workload
   reports all of them; the ones it does not produce read 0. *)
let per_layer =
  [
    ("spice.steps_per_point", "count");
    ("spice.newton_per_step", "count");
    ("spice.jacobians_per_point", "count");
    ("spice.rejected_per_point", "count");
    ("spice.minor_words_per_newton", "words");
    ("spice.arc_measure_us.p50", "us");
    ("characterize.points", "count");
    ("characterize.retried_frac", "frac");
    ("characterize.repaired_frac", "frac");
    ("characterize.cell_s.max", "s");
    ("pool.cpu_util", "frac");
    ("pool.speedup", "x");
    ("io.load_ms", "ms");
    ("io.save_ms", "ms");
    ("cache.memo_hit_frac", "frac");
    ("nldm.lookup_ns", "ns");
    ("sta.pass_us_per_inst", "us");
    ("sta.lookups_per_pass", "count");
    ("sta.prepare_structure_ms", "ms");
    ("guardband.static_ms.p50", "ms");
    ("guardband.vth_only_ms.p50", "ms");
    ("guardband.single_opc_ms.p50", "ms");
    ("guardband.initial_cp_ms.p50", "ms");
    ("synth.compile_s.fresh", "s");
    ("synth.compile_s.aged", "s");
    ("synth.sta_passes", "count");
    ("synth.sta_lookups", "count");
    ("synth.sta_share_est", "frac");
    ("synth.rounds", "count");
    ("sim.prepare_ms", "ms");
    ("sim.process_s.fresh", "s");
    ("sim.process_s.aged", "s");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "frac");
    ("failed_frac", "frac");
    ("libchar.points_per_s", "1/s");
    ("libchar.corner_s.p50", "s");
    ("signoff.checks_per_s", "1/s");
    ("signoff.check_ms.p50", "ms");
    ("signoff.check_ms.p90", "ms");
    ("synth.kinst_per_s", "1/s");
    ("imagechain.pixels_per_s", "1/s");
  ]

(* Completes a traced result with zeros for the metrics it lacks, in the
   order of [per_layer]. *)
let complete_layers metrics =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some m -> m
      | None -> (name, unit, 0.))
    per_layer

let run opts =
  let go ?(setup_reps = 5) ~prepare ~setup ~pass ~named ~layers () =
    drive opts ~setup_reps ~prepare ~setup:(setup opts) ~pass:(pass opts) ~named
      ~layers:(layers opts)
  in
  match opts.workload with
  | "libchar" ->
    (* Its setup takes microseconds: many samples for a steady median. *)
    go ~setup_reps:101 ~prepare:ignore ~setup:Libchar.setup ~pass:Libchar.pass
      ~named:Libchar.named
      ~layers:Libchar.layers ()
  | "signoff" ->
    go ~prepare:(Signoff.prepare opts) ~setup:Signoff.setup ~pass:Signoff.pass
      ~named:Signoff.named ~layers:Signoff.layers ()
  | "synth" ->
    go ~prepare:(Synth.prepare opts) ~setup:Synth.setup ~pass:Synth.pass ~named:Synth.named
      ~layers:Synth.layers ()
  | "imagechain" ->
    go ~prepare:(Imagechain.prepare opts) ~setup:Imagechain.setup ~pass:Imagechain.pass
      ~named:Imagechain.named ~layers:Imagechain.layers ()
  | other -> invalid_arg ("unknown workload " ^ other)

let result_line r =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite v then v else 0.)
      unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.r_failed = 0 && r.r_attempted > 0)
    r.r_attempted r.r_failed
    (String.concat ", " (List.map metric r.r_metrics))

let usage () =
  prerr_endline
    "usage: bench.exe --workload libchar|signoff|synth|imagechain --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int "seed" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  {
    workload;
    seed;
    seconds = float_of_int (max 1 (int "seconds"));
    trace;
    private_dir =
      Filename.concat out_dir (Printf.sprintf "cache-%s-%d" workload (Unix.getpid ()));
  }

let () =
  let opts = parse Sys.argv in
  if not (List.mem opts.workload [ "libchar"; "signoff"; "synth"; "imagechain" ]) then
    usage ();
  Aging_obs.Log.set_level Aging_obs.Log.Warn;
  rm_rf opts.private_dir;
  mkdir_p opts.private_dir;
  let r = Fun.protect ~finally:(fun () -> rm_rf opts.private_dir) (fun () -> run opts) in
  let r = if opts.trace then { r with r_metrics = complete_layers r.r_metrics } else r in
  let stem = Printf.sprintf "%s-seed%d" opts.workload opts.seed in
  write_file
    (Filename.concat out_dir (Printf.sprintf "qor-%s.json" stem))
    (Json.to_string ~pretty:true
       (Json.Obj (List.sort compare (List.of_seq (Hashtbl.to_seq qor))))
    ^ "\n");
  if opts.trace then
    write_file
      (Filename.concat out_dir (Printf.sprintf "trace-%s.json" stem))
      (Json.to_string (Json.Obj [ ("calls", Json.List (List.rev_map call_json !calls)) ])
      ^ "\n");
  print_endline (result_line r)
