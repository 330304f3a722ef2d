(* Shared, memoized test fixtures: characterizing even a small library
   costs a second or two, so every suite shares these.  They characterize
   with [Pool.default_jobs] worker domains — results are identical to a
   sequential build, so suites see the same fixtures; the @parallel-smoke
   alias sets AGING_JOBS=4 to force the parallel path through every
   fixture-based test.

   The memo is keyed on the full effective build configuration — jobs
   and cache directory — not just the fixture name, so two suites asking
   for "the" library under different effective configs (say
   @parallel-smoke's AGING_JOBS=4) never share whichever build ran
   first. *)

module Scenario = Aging_physics.Scenario
module Axes = Aging_liberty.Axes
module Characterize = Aging_liberty.Characterize
module Catalog = Aging_cells.Catalog

let jobs = Aging_util.Pool.default_jobs ()

let subset_names =
  [
    "INV_X1"; "INV_X2"; "INV_X4"; "INV_X1H"; "NAND2_X1"; "NAND2_X2";
    "NAND2_X4"; "NAND2_X1H"; "NOR2_X1"; "NOR2_X2"; "NAND3_X1"; "NOR3_X1";
    "AND2_X1"; "OR2_X1"; "AOI21_X1"; "OAI21_X1"; "XOR2_X1"; "XNOR2_X1";
    "MUX2_X1"; "MUXI2_X1"; "BUF_X1"; "BUF_X4"; "FA_X1"; "HA_X1"; "DFF_X1";
    "TIELO_X1"; "TIEHI_X1";
  ]

let subset_cells = lazy (List.map Catalog.find_exn subset_names)

let config_key ~kind ~name ~jobs ~cache_dir =
  Printf.sprintf "%s|%s|jobs=%d|cache=%s" kind name jobs
    (Option.value cache_dir ~default:"-")

let memo_mu = Mutex.create ()
let library_memo : (string, Aging_liberty.Library.t) Hashtbl.t =
  Hashtbl.create 8
let deglib_memo : (string, Aging_core.Degradation_library.t) Hashtbl.t =
  Hashtbl.create 4

let memoized memo key build =
  Mutex.lock memo_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock memo_mu)
    (fun () ->
      match Hashtbl.find_opt memo key with
      | Some v -> v
      | None ->
        let v = build () in
        Hashtbl.add memo key v;
        v)

let shared_library ~name ~scenario () =
  let jobs = Aging_util.Pool.default_jobs () in
  let key = config_key ~kind:"library" ~name ~jobs ~cache_dir:None in
  memoized library_memo key (fun () ->
      Characterize.library ~jobs
        ~cells:(Lazy.force subset_cells)
        ~axes:Axes.coarse ~name ~scenario ())

let shared_deglib ?cache_dir () =
  let jobs = Aging_util.Pool.default_jobs () in
  let key = config_key ~kind:"deglib" ~name:"test" ~jobs ~cache_dir in
  memoized deglib_memo key (fun () ->
      Aging_core.Degradation_library.create ~jobs ?cache_dir
        ~cells:(Lazy.force subset_cells)
        ~axes:Axes.coarse ())

let fresh_library =
  lazy
    (shared_library ~name:"test-fresh"
       ~scenario:(Scenario.scenario Scenario.fresh)
       ())

let aged_library =
  lazy
    (shared_library ~name:"test-aged"
       ~scenario:(Scenario.scenario Scenario.worst_case)
       ())

let deglib = lazy (shared_deglib ())

(* Bit-identity of the shared fixture across job counts.  The fixture
   characterizes once per process (the [lazy] above) with
   [Pool.default_jobs] worker domains — whatever AGING_JOBS says; a
   sequential rebuild of the same cells must agree entry for entry, or
   suites would see different fixtures depending on the environment.
   [Cell.logic] is a closure, so compare the data projection of each
   entry rather than the entry itself. *)
let jobs_identity_error () =
  let module Library = Aging_liberty.Library in
  let project (e : Library.entry) =
    (e.Library.indexed_name, e.Library.corner, e.Library.arcs,
     e.Library.pin_caps, e.Library.setup_time)
  in
  let sequential =
    Characterize.library ~jobs:1
      ~cells:(Lazy.force subset_cells)
      ~axes:Axes.coarse ~name:"test-fresh"
      ~scenario:(Scenario.scenario Scenario.fresh)
      ()
  in
  let shared = Lazy.force fresh_library in
  let a = List.map project (Library.entries shared) in
  let b = List.map project (Library.entries sequential) in
  if List.length a <> List.length b then
    Some
      (Printf.sprintf "entry count differs: %d (jobs=%d) vs %d (sequential)"
         (List.length a) jobs (List.length b))
  else
    List.fold_left2
      (fun acc ea eb ->
        match acc with
        | Some _ -> acc
        | None ->
          if ea = eb then None
          else
            let name, _, _, _, _ = ea in
            Some
              (Printf.sprintf
                 "entry %s differs between jobs=%d and sequential builds"
                 name jobs))
      None a b

(* Cycle-accurate equivalence of two netlists over random input vectors. *)
let equivalent ?(cycles = 100) ?(seed = 11L) a b =
  let module N = Aging_netlist.Netlist in
  let rng = Aging_util.Rng.create seed in
  let ca = N.compile a and cb = N.compile b in
  let sa = ref (N.initial_state a) and sb = ref (N.initial_state b) in
  let ok = ref true in
  for _ = 1 to cycles do
    let inputs = List.map (fun (p, _) -> (p, Aging_util.Rng.bool rng)) a.N.input_ports in
    let oa, na = N.compiled_cycle ca !sa ~inputs in
    let ob, nb = N.compiled_cycle cb !sb ~inputs in
    sa := na;
    sb := nb;
    if List.sort compare oa <> List.sort compare ob then ok := false
  done;
  !ok

let close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let check_close ?tol msg expected actual =
  if not (close ?tol expected actual) then
    Alcotest.failf "%s: expected %.6g, got %.6g" msg expected actual

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick (QCheck2.Test.make ~count ~name gen prop)
