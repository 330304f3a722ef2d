module Scenario = Aging_physics.Scenario
module Degradation = Aging_physics.Degradation
module Axes = Aging_liberty.Axes
module Library = Aging_liberty.Library
module Characterize = Aging_liberty.Characterize
module Nldm = Aging_liberty.Nldm
module Io = Aging_liberty.Io
module Cell = Aging_cells.Cell
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Log = Aging_obs.Log
module Lru = Aging_util.Lru
module Surrogate = Aging_liberty.Surrogate

let m_memo_hit = Metrics.counter "cache.memo_hit"
let m_memo_miss = Metrics.counter "cache.memo_miss"
let m_evict = Metrics.counter "cache.memo_evict"
let m_disk_hit = Metrics.counter "cache.disk_hit"
let m_build = Metrics.counter "cache.build"
let m_corrupt = Metrics.counter "cache.corrupt"

let memo_cap = 256

type t = {
  backend : Characterize.backend;
  cells : Cell.t list;
  axes : Axes.t;
  years : float;
  cache_dir : string option;
  jobs : int;
  memo : (string, Library.t) Lru.t;
      (* Bounded: a long sweep (the guardband-monotone oracle, a full
         corner grid) visits many corners, and each characterized library
         is megabytes of NLDM tables.  Keys are
         the exact-lambda cache keys of [key], so eviction never aliases
         corners; an evicted library falls back to the disk cache (if
         configured) or a rebuild. *)
  fingerprint : string;
  reports : (string * Characterize.report) list ref;
  lock : Mutex.t;
      (* guards [memo] and [reports], so one manager can serve corners
         to several domains at once *)
  surrogate : Surrogate.config option;
  mutable anchored : Surrogate.t option;
      (* [surrogate] bound to the anchor libraries, once they are in *)
  anchor_lock : Mutex.t;
      (* serializes building the anchors; never held while [lock] waits
         on it (the nested order is anchor_lock -> lock only) *)
}

let rec backend_tag = function
  | Characterize.Transient _ -> "transient"
  | Characterize.Analytic -> "analytic"
  | Characterize.Faulty (f, inner) ->
    Printf.sprintf "faulty%g:%d:%d+%s" f.Characterize.rate f.Characterize.seed
      f.Characterize.depth (backend_tag inner)

let create ?(backend = Characterize.default_backend) ?cells ?(axes = Axes.paper)
    ?(years = 10.) ?cache_dir ?(jobs = 1) ?surrogate () =
  let cells = Option.value cells ~default:(Aging_cells.Catalog.all ()) in
  (* The fingerprint must change whenever anything that affects the tables
     changes: cell set, axes, backend, lifetime, and the physics model
     itself (probed by sampling the degradation of a reference device).
     It is a digest of a full canonical serialization — NOT [Hashtbl.hash],
     whose bounded traversal (10 meaningful nodes by default) ignores
     everything past the first few cells and axis points, so perturbing a
     late axis value or cell would silently reuse a stale cache file. *)
  let model_probe =
    let stress = Aging_physics.Bti.stress ~duty:1.0 () in
    let d =
      Degradation.of_stress (Aging_physics.Device.pmos ~w:1e-7) stress
    in
    let dn =
      Degradation.of_stress (Aging_physics.Device.nmos ~w:1e-7) stress
    in
    (d.Degradation.delta_vth, d.Degradation.mu_factor, dn.Degradation.delta_vth)
  in
  let fingerprint =
    let b = Buffer.create 512 in
    (* %h is lossless for floats, so distinct values never collide in the
       serialization the way a rounded decimal print could. *)
    let addf x = Buffer.add_string b (Printf.sprintf "%h;" x) in
    Buffer.add_string b "cells:";
    List.iter
      (fun (c : Cell.t) ->
        Buffer.add_string b c.Cell.name;
        Buffer.add_char b ';')
      cells;
    Buffer.add_string b "|slews:";
    Array.iter addf axes.Axes.slews;
    Buffer.add_string b "|loads:";
    Array.iter addf axes.Axes.loads;
    Buffer.add_string b "|backend:";
    Buffer.add_string b (backend_tag backend);
    Buffer.add_string b "|years:";
    addf years;
    Buffer.add_string b "|probe:";
    let p_vth, p_mu, n_vth = model_probe in
    addf p_vth;
    addf p_mu;
    addf n_vth;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  { backend; cells; axes; years; cache_dir; jobs = max 1 jobs;
    memo = Lru.create ~cap:memo_cap; fingerprint; reports = ref [];
    lock = Mutex.create (); surrogate; anchored = None;
    anchor_lock = Mutex.create () }

let axes t = t.axes
let years t = t.years
let fingerprint t = t.fingerprint
let memo_length t = Mutex.protect t.lock (fun () -> Lru.length t.memo)

let mode_tag = function Degradation.Full -> "full" | Degradation.Vth_only -> "vth"

(* The key must identify the corner {e exactly}: [Scenario.suffix] rounds
   to one decimal, so using it here would alias every corner within the
   same 0.1 bucket onto one cache entry — harmless for the snapped paper
   grid, silently wrong for the arbitrary corners the API accepts (found
   by the guardband-monotone differential oracle). *)
let key t ~mode corner =
  Printf.sprintf "%s_y%g_%.17g_%.17g_%s" (mode_tag mode) t.years
    corner.Scenario.lambda_p corner.Scenario.lambda_n t.fingerprint

(* A cache file that cannot be read or parsed is a miss, not a crash: log
   and rebuild.  Cache corruption (truncated write, concurrent writer, a
   format change) must never take down a characterization job. *)
let load_cache_file path =
  if not (Sys.file_exists path) then None
  else
    match Io.load path with
    | lib -> Some lib
    | exception (Failure msg | Sys_error msg | Invalid_argument msg) ->
      Metrics.incr m_corrupt;
      Log.warnf "core.cache" "corrupt cache file %s (%s); treating as a miss"
        path msg;
      None

(* [Sys.mkdir] is not recursive, so a nested cache dir ("cache/aged/v2")
   needs every ancestor created first; a concurrent writer racing us to any
   component surfaces as EEXIST ([Sys_error]) and is fine as long as the
   directory is there afterwards. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error _
      when (try Sys.is_directory dir with Sys_error _ -> false) ->
      ()
  end

(* Writes go through a temp file in the same directory plus an atomic
   rename, so a crash mid-write can never leave a half-written .alib that
   would poison later runs. *)
let save_cache_file dir name lib =
  mkdir_p dir;
  let path = Filename.concat dir (name ^ ".alib") in
  let tmp = Filename.temp_file ~temp_dir:dir ("." ^ name) ".tmp" in
  match Io.save tmp lib with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* The memo is read and written from whichever domain asks for a corner,
   so lookups and inserts take the manager lock; the expensive build
   itself runs outside it, so callers on other domains are not held up
   behind it.  Two domains racing on the {e same} key would both build and
   one insert would win — harmless, since the results are identical. *)
let cached t name build =
  match Mutex.protect t.lock (fun () -> Lru.find t.memo name) with
  | Some lib ->
    Metrics.incr m_memo_hit;
    lib
  | None ->
    Metrics.incr m_memo_miss;
    let from_disk =
      match t.cache_dir with
      | None -> None
      | Some dir -> load_cache_file (Filename.concat dir (name ^ ".alib"))
    in
    let lib =
      match from_disk with
      | Some lib ->
        Metrics.incr m_disk_hit;
        Log.infof "core.cache" "library %s served from disk cache" name;
        lib
      | None ->
        Metrics.incr m_build;
        Log.infof "core.cache" "library %s: cache miss, characterizing" name;
        let lib =
          Span.with_ "deglib.build" ~attrs:[ ("library", name) ] build
        in
        Option.iter (fun dir -> save_cache_file dir name lib) t.cache_dir;
        lib
    in
    Mutex.protect t.lock (fun () ->
        match Lru.put t.memo name lib with
        | None -> ()
        | Some (evicted, _) ->
          Metrics.incr m_evict;
          Log.debugf "core.cache" "memo full (cap %d): evicted %s"
            (Lru.cap t.memo) evicted);
    lib

let build_with_report t ?surrogate ~name ~scenario () =
  let lib, report =
    Characterize.library_report ~backend:t.backend ~cells:t.cells ?surrogate
      ~jobs:t.jobs ~axes:t.axes ~name ~scenario ()
  in
  Mutex.protect t.lock (fun () -> t.reports := (name, report) :: !(t.reports));
  lib

let build_reports t = Mutex.protect t.lock (fun () -> !(t.reports))

(* Anchor corners of the surrogate: the four duty-cycle extremes plus the
   balanced center.  Fixed — never derived from the corners actually
   requested — so every surrogate-built library is a function of the
   deglib configuration alone, not of query order. *)
let anchor_corners =
  [
    Scenario.fresh;
    Scenario.corner ~lambda_p:1. ~lambda_n:0.;
    Scenario.corner ~lambda_p:0. ~lambda_n:1.;
    Scenario.balanced;
    Scenario.worst_case;
  ]

(* Builds (or loads) the anchor libraries and binds the surrogate config
   to them, once.  Anchor builds are plain full-simulation corner builds
   under the plain cache key, so they are shared with non-surrogate runs
   of the same deglib configuration, and a loaded anchor is the same
   table as a built one. *)
let anchored t cfg =
  Mutex.protect t.anchor_lock (fun () ->
      match t.anchored with
      | Some s -> s
      | None ->
        let anchors =
          List.map
            (fun c ->
              let scenario = Scenario.scenario ~years:t.years c in
              let name = key t ~mode:Degradation.Full c in
              (scenario, cached t name (build_with_report t ~name ~scenario)))
            anchor_corners
        in
        let s = Surrogate.create cfg ~anchors in
        Log.infof "core.surrogate" "surrogate anchored on %d corners (digest %s)"
          (List.length anchors) (Surrogate.digest s);
        t.anchored <- Some s;
        s)

(* Builds [scenario]'s library under cache name [name]; a surrogate build
   appends the anchored surrogate's digest so it never aliases a full
   build, a build under another tolerance, or one against other
   anchors. *)
let build_corner t ~name ~scenario () =
  match t.surrogate with
  | None -> cached t name (build_with_report t ~name ~scenario)
  | Some cfg ->
    let surrogate = anchored t cfg in
    let name = name ^ "_s" ^ String.sub (Surrogate.digest surrogate) 0 12 in
    cached t name (build_with_report t ~surrogate ~name ~scenario)

let corner ?(mode = Degradation.Full) t c =
  build_corner t ~name:(key t ~mode c)
    ~scenario:(Scenario.scenario ~years:t.years ~mode c)
    ()

let fresh t = corner t Scenario.fresh
let worst_case ?mode t = corner ?mode t Scenario.worst_case

(* Each corner is the memoized, disk-cached bare library of [corner]
   (whose build already spreads its grids over the pool); the complete
   library is those entries renamed to their indexed names, in corner then
   catalog order. *)
let complete t corners =
  if corners = [] then invalid_arg "Degradation_library.complete: no corners";
  let indexed c =
    List.map
      (fun (e : Library.entry) ->
        let base = e.Library.cell.Cell.name in
        { e with Library.indexed_name = Scenario.indexed_name base c })
      (Library.entries (corner t c))
  in
  Library.create ~lib_name:"complete" ~axes:t.axes
    (List.concat_map indexed corners)

let single_opc t c =
  let fresh_lib = fresh t in
  let aged_lib = corner t c in
  (* The pessimistic operating condition prior work scales by: the
     largest characterized slew and the smallest load. *)
  let slew = t.axes.Axes.slews.(Array.length t.axes.Axes.slews - 1) in
  let load = t.axes.Axes.loads.(0) in
  let scale_entry (fresh_e : Library.entry) =
    let aged_e = Library.find_exn aged_lib fresh_e.Library.indexed_name in
    let scale_arc (fa : Library.arc) =
      match
        List.find_opt
          (fun (aa : Library.arc) ->
            aa.Library.from_pin = fa.Library.from_pin
            && aa.Library.to_pin = fa.Library.to_pin)
          aged_e.Library.arcs
      with
      | None -> fa
      | Some aa ->
        let ratio dir =
          let d0 = Library.delay_of fa ~dir ~slew ~load in
          let d1 = Library.delay_of aa ~dir ~slew ~load in
          if Float.abs d0 < 1e-13 then 1.
          else Float.max 0.2 (Float.min 8. (d1 /. d0))
        in
        let r_rise = ratio Library.Rise and r_fall = ratio Library.Fall in
        {
          fa with
          Library.delay_rise = Nldm.map (fun d -> d *. r_rise) fa.Library.delay_rise;
          delay_fall = Nldm.map (fun d -> d *. r_fall) fa.Library.delay_fall;
        }
    in
    {
      fresh_e with
      Library.arcs = List.map scale_arc fresh_e.Library.arcs;
      setup_time = aged_e.Library.setup_time;
    }
  in
  Library.create
    ~lib_name:(Printf.sprintf "single-opc[%s]" (Scenario.suffix c))
    ~axes:t.axes
    (List.map scale_entry (Library.entries fresh_lib))
