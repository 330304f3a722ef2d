(* Telemetry library: metrics registry, JSON, spans, and agreement between
   the process-global counters and the characterization report of PR 1. *)

module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Log = Aging_obs.Log
module Json = Aging_obs.Json
module Run_ledger = Aging_obs.Run_ledger
module Trace_export = Aging_obs.Trace_export
module Profile = Aging_obs.Profile
module Scenario = Aging_physics.Scenario
module Axes = Aging_liberty.Axes
module Characterize = Aging_liberty.Characterize
module Catalog = Aging_cells.Catalog

(* ------------------------------ metrics ------------------------------ *)

let test_counter () =
  let c = Metrics.counter "test.obs.counter" in
  let c' = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.incr ~by:4 c';
  Alcotest.(check int) "get-or-create shares storage" 5 (Metrics.value c);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes in place" 0 (Metrics.value c);
  Metrics.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Metrics.value c')

let test_kind_mismatch () =
  ignore (Metrics.counter "test.obs.kind");
  try
    ignore (Metrics.gauge "test.obs.kind");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_gauge () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set g 2.5;
  Metrics.set g 42.;
  Alcotest.(check (float 0.)) "last write wins" 42. (Metrics.gauge_value g)

let test_metrics_json () =
  let c = Metrics.counter "test.obs.json.counter" in
  Metrics.incr ~by:7 c;
  (* The export must survive a round trip through its own parser and keep
     counter integers exact. *)
  let doc = Json.of_string (Json.to_string ~pretty:true (Metrics.to_json ())) in
  match Json.member "test.obs.json.counter" doc with
  | Some entry ->
    Alcotest.(check (option string)) "type tag" (Some "counter")
      (match Json.member "type" entry with
      | Some (Json.String s) -> Some s
      | _ -> None);
    Alcotest.(check bool) "exact integer value" true
      (Json.member "value" entry = Some (Json.Int 7))
  | None -> Alcotest.fail "counter missing from JSON export"

(* ------------------------------- json ------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("big", Json.Int max_int);
        ("float", Json.Float 1.6180339887498949);
        ("tiny", Json.Float 4.9302499294281006e-11);
        ("str", Json.String "a\"b\\c\n\t\x01é");
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  Alcotest.(check bool) "compact round trip" true
    (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "pretty round trip" true
    (Json.of_string (Json.to_string ~pretty:true v) = v)

let test_json_parse () =
  Alcotest.(check bool) "escapes" true
    (Json.of_string {|"a\u00e9\u0041\n"|} = Json.String "aéA\n");
  Alcotest.(check bool) "number classes" true
    (Json.of_string "[1, 1.0, 1e2]"
    = Json.List [ Json.Int 1; Json.Float 1.; Json.Float 100. ]);
  let bad s =
    try
      ignore (Json.of_string s);
      Alcotest.failf "accepted malformed %S" s
    with Json.Parse_error _ -> ()
  in
  List.iter bad [ ""; "{"; "[1,]"; "{\"a\":1} x"; "nul"; "\"\\q\"" ]

(* ------------------------------- spans ------------------------------- *)

let test_span_nesting () =
  Span.reset ();
  Span.set_recording true;
  let r =
    Span.with_ "test.outer" ~attrs:[ ("k", "v") ] (fun () ->
        Span.with_ "test.inner" (fun () -> ());
        Span.with_ "test.inner" (fun () -> ());
        17)
  in
  Span.set_recording false;
  Alcotest.(check int) "with_ returns the result" 17 r;
  match Span.roots () with
  | [ outer ] ->
    Alcotest.(check string) "root name" "test.outer" outer.Span.name;
    Alcotest.(check (list (pair string string))) "attrs" [ ("k", "v") ]
      outer.Span.attrs;
    Alcotest.(check int) "two children" 2 (List.length outer.Span.children);
    Alcotest.(check bool) "outcome completed" true
      (outer.Span.outcome = Span.Completed);
    List.iter
      (fun (c : Span.t) ->
        Alcotest.(check string) "child name" "test.inner" c.Span.name;
        Alcotest.(check bool) "child within parent" true
          (c.Span.duration <= outer.Span.duration +. 1e-9))
      outer.Span.children
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_span_exception_safety () =
  Span.reset ();
  Span.set_recording true;
  (try
     Span.with_ "test.boom" (fun () ->
         Span.with_ "test.boom.inner" (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  (* The stack unwound cleanly: a later span is a new root, not a child of
     the raised one. *)
  Span.with_ "test.after" (fun () -> ());
  Span.set_recording false;
  match Span.roots () with
  | [ boom; after ] ->
    Alcotest.(check string) "raised root" "test.boom" boom.Span.name;
    Alcotest.(check bool) "outcome raised" true
      (match boom.Span.outcome with
      | Span.Raised msg -> String.length msg > 0
      | Span.Completed -> false);
    Alcotest.(check int) "raised child recorded" 1
      (List.length boom.Span.children);
    Alcotest.(check string) "next span is a fresh root" "test.after"
      after.Span.name
  | roots -> Alcotest.failf "expected 2 roots, got %d" (List.length roots)

(* ---------------------- log levels and warnings ---------------------- *)

let test_log_levels () =
  let saved = Log.level () in
  Fun.protect ~finally:(fun () -> Log.set_level saved) @@ fun () ->
  Metrics.reset ();
  Log.set_level Log.Quiet;
  Log.warnf "test" "suppressed %d" 1;
  Alcotest.(check int) "quiet still counts warnings" 1
    (Metrics.value (Metrics.counter "log.warnings"));
  Alcotest.(check (option string)) "level names parse"
    (Some "debug")
    (match Log.level_of_string "debug" with
    | Some Log.Debug -> Some "debug"
    | _ -> None);
  Alcotest.(check bool) "unknown level rejected" true
    (Log.level_of_string "loud" = None);
  Log.set_level Log.Warn;
  Alcotest.(check bool) "warn enabled at Warn" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "info disabled at Warn" false (Log.enabled Log.Info)

(* ----------- counters agree with the characterization report ---------- *)

let totals_vs_counters ?(jobs = 1) ?(cells = [ "INV_X1" ]) ?(axes = Axes.coarse)
    ~backend ~scenario () =
  Metrics.reset ();
  let _lib, report =
    Characterize.library_report ~backend ~jobs
      ~cells:(List.map Catalog.find_exn cells)
      ~axes ~name:"obs" ~scenario ()
  in
  let t = Characterize.report_totals report in
  let v name = Metrics.value (Metrics.counter name) in
  Alcotest.(check int) "measured = clean" t.Characterize.clean
    (v "characterize.points.measured");
  Alcotest.(check int) "retried = recovered" t.Characterize.recovered
    (v "characterize.points.retried");
  Alcotest.(check int) "nothing failed" 0 (v "characterize.points.failed");
  Alcotest.(check int) "cell count" (List.length cells)
    (v "characterize.cells");
  t

let test_build_metrics_clean () =
  let t =
    totals_vs_counters ~backend:Characterize.default_backend
      ~scenario:(Scenario.scenario Scenario.fresh) ()
  in
  Alcotest.(check bool) "grid measured" true (t.Characterize.points > 0);
  let v name = Metrics.value (Metrics.counter name) in
  Alcotest.(check bool) "engine ran transients" true (v "engine.transients" > 0);
  Alcotest.(check bool) "engine stepped" true
    (v "engine.steps" > v "engine.transients");
  Alcotest.(check bool) "newton iterated" true
    (v "engine.newton_iterations" >= v "engine.steps")

let test_build_metrics_retried () =
  (* The aged inverter at 230 fF: two points need an escalated rung. *)
  let t =
    totals_vs_counters
      ~axes:{ Axes.slews = [| 10e-12; 20e-12 |]; loads = [| 1e-15; 230e-15 |] }
      ~backend:Characterize.default_backend
      ~scenario:(Scenario.scenario Scenario.worst_case) ()
  in
  Alcotest.(check int) "two points retried" 2 t.Characterize.recovered

let test_build_metrics_parallel () =
  (* Counters are bumped from worker domains during a parallel build; the
     registry's atomics must not lose increments, so the counters still
     agree exactly with the (deterministically merged) report. *)
  let t =
    totals_vs_counters ~jobs:4
      ~cells:[ "INV_X1"; "NAND2_X1"; "NOR2_X1" ]
      ~backend:Characterize.default_backend
      ~scenario:(Scenario.scenario Scenario.worst_case) ()
  in
  Alcotest.(check bool) "grid measured" true (t.Characterize.points > 0);
  Alcotest.(check int) "counters partition the grid" t.Characterize.points
    (t.Characterize.clean + t.Characterize.recovered)

(* ----------------------- non-finite float JSON ----------------------- *)

let test_nonfinite_floats () =
  Alcotest.(check bool) "finite is a number" true
    (Json.of_float 2.5 = Json.Float 2.5);
  Alcotest.(check bool) "nan is deterministic" true
    (Json.of_float Float.nan = Json.String "NaN");
  Alcotest.(check bool) "+inf" true
    (Json.of_float infinity = Json.String "Infinity");
  Alcotest.(check bool) "-inf" true
    (Json.of_float neg_infinity = Json.String "-Infinity");
  (* Round trip through the printer/parser: the encoded forms are plain
     strings, so to_string must accept them where a bare Float nan would
     raise. *)
  let encoded =
    Json.to_string
      (Json.List (List.map Json.of_float [ 1.5; Float.nan; infinity ]))
  in
  (match Json.of_string encoded with
  | Json.List [ a; b; c ] ->
    Alcotest.(check (option (float 0.))) "finite back" (Some 1.5)
      (Json.to_float a);
    Alcotest.(check bool) "nan back" true
      (match Json.to_float b with Some f -> Float.is_nan f | None -> false);
    Alcotest.(check (option (float 0.))) "inf back" (Some infinity)
      (Json.to_float c)
  | _ -> Alcotest.fail "list shape lost");
  (* Ints read back as floats too (JSON numbers are one class). *)
  Alcotest.(check (option (float 0.))) "int promotes" (Some 3.)
    (Json.to_float (Json.Int 3))

(* --------------------------- span of_json --------------------------- *)

let test_span_json_roundtrip () =
  Span.reset ();
  Span.set_recording true;
  (try
     Span.with_ "test.rt.outer" ~attrs:[ ("unicode", "é\n\"") ] (fun () ->
         Span.with_ "test.rt.inner" (fun () -> ());
         failwith "boom")
   with Failure _ -> ());
  Span.set_recording false;
  let roots = Span.roots () in
  let rec strip (s : Span.t) =
    (* of_json can't reproduce float noise below the printer's precision,
       but Json.to_string prints round-trippable doubles, so equality is
       exact. *)
    {
      s with
      Span.children = List.map strip s.Span.children;
    }
  in
  List.iter
    (fun (s : Span.t) ->
      let json = Json.of_string (Json.to_string (Span.span_to_json s)) in
      match Span.of_json json with
      | Ok s' -> Alcotest.(check bool) "span round trip" true (strip s = s')
      | Error e -> Alcotest.failf "span of_json failed: %s" e)
    roots;
  Alcotest.(check bool) "bad span json is an Error" true
    (match Span.of_json (Json.Obj [ ("name", Json.Int 3) ]) with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------ ledger ------------------------------ *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ledger-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let test_ledger_roundtrip () =
  with_tmp_dir @@ fun dir ->
  Metrics.reset ();
  Span.reset ();
  Span.set_recording true;
  Span.with_ "test.ledger.work" (fun () -> ());
  Span.set_recording false;
  Run_ledger.note_qor "guardband_ps" 62.5;
  Run_ledger.note_qor "nan_qor" Float.nan;
  Run_ledger.note "jobs" (Json.Int 4);
  let r =
    Run_ledger.capture ~tool:"test" ~subcommand:"roundtrip"
      ~argv:[ "test"; "É=\"quoted\"" ] ~outcome:(Run_ledger.Failed "why")
      ~started_at:1754000000.25 ~wall_s:1.5 ()
  in
  Alcotest.(check int) "id length" 12 (String.length r.Run_ledger.id);
  Alcotest.(check bool) "qor drained" true
    (List.assoc_opt "guardband_ps" r.Run_ledger.qor = Some 62.5);
  Alcotest.(check bool) "spans captured" true
    (List.exists
       (fun (s : Span.t) -> s.Span.name = "test.ledger.work")
       r.Run_ledger.spans);
  (* A second capture starts from drained accumulators. *)
  let r2 =
    Run_ledger.capture ~tool:"test" ~subcommand:"next" ~started_at:0.
      ~wall_s:0. ()
  in
  Alcotest.(check (list (pair string (float 0.)))) "accumulators drain" []
    r2.Run_ledger.qor;
  Alcotest.(check bool) "fresh id per capture" true
    (r.Run_ledger.id <> r2.Run_ledger.id);
  ignore (Run_ledger.append ~dir r);
  ignore (Run_ledger.append ~dir r2);
  match Run_ledger.load ~dir with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok [ a; b ] ->
    Alcotest.(check string) "order preserved" r.Run_ledger.id a.Run_ledger.id;
    Alcotest.(check string) "second record" r2.Run_ledger.id b.Run_ledger.id;
    Alcotest.(check bool) "outcome survives" true
      (a.Run_ledger.outcome = Run_ledger.Failed "why");
    Alcotest.(check bool) "argv survives escaping" true
      (a.Run_ledger.argv = [ "test"; "É=\"quoted\"" ]);
    Alcotest.(check bool) "NaN QoR survives deterministically" true
      (match List.assoc_opt "nan_qor" a.Run_ledger.qor with
      | Some f -> Float.is_nan f
      | None -> false);
    Alcotest.(check bool) "notes survive" true
      (List.assoc_opt "jobs" a.Run_ledger.notes = Some (Json.Int 4));
    Alcotest.(check bool) "spans survive" true
      (List.length a.Run_ledger.spans = List.length r.Run_ledger.spans)
  | Ok l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let test_ledger_select () =
  with_tmp_dir @@ fun dir ->
  let mk i =
    Run_ledger.capture ~tool:"test" ~subcommand:(string_of_int i)
      ~started_at:(float_of_int i) ~wall_s:0. ()
  in
  let records = List.map mk [ 0; 1; 2 ] in
  List.iter (fun r -> ignore (Run_ledger.append ~dir r)) records;
  let loaded = Result.get_ok (Run_ledger.load ~dir) in
  let id_of sel =
    match Run_ledger.select loaded sel with
    | Ok r -> r.Run_ledger.id
    | Error e -> Alcotest.failf "select %s failed: %s" sel e
  in
  let nth n = (List.nth records n).Run_ledger.id in
  Alcotest.(check string) "index 0" (nth 0) (id_of "0");
  Alcotest.(check string) "index -1" (nth 2) (id_of "-1");
  Alcotest.(check string) "index -3" (nth 0) (id_of "-3");
  Alcotest.(check string) "id prefix"
    (nth 1)
    (id_of (String.sub (nth 1) 0 6));
  (* A positive out-of-range index like "7" may still resolve: ids are
     random hex, so "7" is a valid id prefix whenever an id happens to
     start with it (a real 1-in-6 flake).  A negative out-of-range index
     can never alias an id prefix — ids contain no '-'. *)
  Alcotest.(check bool) "out of range is an error" true
    (Result.is_error (Run_ledger.select loaded "-7"));
  Alcotest.(check bool) "unknown prefix is an error" true
    (Result.is_error (Run_ledger.select loaded "zzzz"));
  (* Ids are random hex, so a prefix can be purely numeric; out of range
     as an index, it must still resolve as an id prefix. *)
  let numeric = { (List.nth loaded 1) with Run_ledger.id = "914236abcdef" } in
  (match Run_ledger.select [ List.nth loaded 0; numeric ] "914236" with
  | Ok r ->
    Alcotest.(check string) "numeric prefix falls back" "914236abcdef"
      r.Run_ledger.id
  | Error e -> Alcotest.failf "numeric prefix failed: %s" e)

let test_ledger_corrupt_lines () =
  with_tmp_dir @@ fun dir ->
  let r =
    Run_ledger.capture ~tool:"test" ~subcommand:"keep" ~started_at:0.
      ~wall_s:0. ()
  in
  ignore (Run_ledger.append ~dir r);
  (* Simulate a torn concurrent append and unrelated garbage. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Run_ledger.path ~dir)
  in
  output_string oc "this is not json\n{\"version\":";
  close_out oc;
  (match Run_ledger.load ~dir with
  | Ok [ only ] ->
    Alcotest.(check string) "good record kept" r.Run_ledger.id
      only.Run_ledger.id
  | Ok l -> Alcotest.failf "expected 1 record, got %d" (List.length l)
  | Error e -> Alcotest.failf "load failed: %s" e);
  (* A record from a newer schema is skipped, not fatal. *)
  let newer =
    Json.to_string
      (Json.Obj [ ("version", Json.Int (Run_ledger.schema_version + 1)) ])
  in
  let oc = open_out_gen [ Open_append ] 0o644 (Run_ledger.path ~dir) in
  output_string oc ("\n" ^ newer ^ "\n");
  close_out oc;
  match Run_ledger.load ~dir with
  | Ok l -> Alcotest.(check int) "newer-schema line skipped" 1 (List.length l)
  | Error e -> Alcotest.failf "load failed: %s" e

let test_ledger_concurrent_appends () =
  with_tmp_dir @@ fun dir ->
  (* Four domains race 8 appends each; O_APPEND single-write atomicity must
     keep every line parseable. *)
  let worker d () =
    for i = 0 to 7 do
      let r =
        Run_ledger.capture ~tool:"test"
          ~subcommand:(Printf.sprintf "d%d-%d" d i)
          ~argv:[ "x" ] ~started_at:(float_of_int i) ~wall_s:0. ()
      in
      ignore (Run_ledger.append ~dir r)
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  match Run_ledger.load ~dir with
  | Ok records ->
    Alcotest.(check int) "all 32 records parse" 32 (List.length records);
    let ids = List.map (fun r -> r.Run_ledger.id) records in
    Alcotest.(check int) "ids unique" 32
      (List.length (List.sort_uniq String.compare ids))
  | Error e -> Alcotest.failf "load failed: %s" e

(* ------------------------- trace and profile ------------------------- *)

let spans_of_parallel_build () =
  Span.reset ();
  Metrics.reset ();
  Span.set_recording true;
  let _lib =
    Characterize.library ~jobs:4
      ~cells:(List.map Catalog.find_exn [ "INV_X1"; "NAND2_X1"; "NOR2_X1" ])
      ~axes:Axes.coarse ~name:"trace"
      ~scenario:(Scenario.scenario Scenario.worst_case) ()
  in
  Span.set_recording false;
  Span.roots ()

let test_trace_export_parallel () =
  let roots = spans_of_parallel_build () in
  Alcotest.(check bool) "worker spans surface as extra roots" true
    (List.length roots > 1);
  let events =
    match Trace_export.to_json roots with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "trace is not a JSON array"
  in
  Alcotest.(check bool) "one event per span" true
    (List.length events
    = List.fold_left
        (fun n root ->
          let rec count (s : Span.t) =
            1 + List.fold_left (fun a c -> a + count c) 0 s.Span.children
          in
          n + count root)
        0 roots);
  let field name ev = Option.get (Json.member name ev) in
  List.iter
    (fun ev ->
      Alcotest.(check bool) "complete event" true
        (field "ph" ev = Json.String "X");
      let non_negative v =
        match v with
        | Json.Float f -> Float.is_finite f && f >= 0.
        | Json.Int i -> i >= 0
        | _ -> false
      in
      Alcotest.(check bool) "ts is a finite non-negative number" true
        (non_negative (field "ts" ev));
      Alcotest.(check bool) "dur is a finite non-negative number" true
        (non_negative (field "dur" ev)))
    events;
  let tids =
    List.sort_uniq compare
      (List.map (fun ev -> field "tid" ev) events)
  in
  (* The main domain's library-level root overlaps its worker-domain cell
     roots in time, so lane assignment must use at least two tracks. *)
  Alcotest.(check bool) "concurrent roots get distinct tids" true
    (List.length tids >= 2);
  (* The serialized trace parses back — i.e. it is valid JSON on disk. *)
  Alcotest.(check bool) "serialized trace parses" true
    (match Json.of_string (Trace_export.to_string roots) with
    | Json.List _ -> true
    | _ -> false)

let test_profile_telescopes () =
  let roots = spans_of_parallel_build () in
  let rows = Profile.of_spans roots in
  let total_roots = Profile.total_roots roots in
  let total_self = Profile.total_self rows in
  (* Self times telescope: summed over every tree they reproduce the root
     durations exactly (the acceptance bound is 1%; the identity is
     float-exact up to accumulation order). *)
  Alcotest.(check bool) "self times sum to the root durations" true
    (Float.abs (total_self -. total_roots)
    <= 0.01 *. Float.max total_roots 1e-9);
  let find name =
    List.find (fun (r : Profile.row) -> r.Profile.name = name) rows
  in
  let point = find "characterize.point" in
  Alcotest.(check bool) "leaf spans: self = total" true
    (Float.abs (point.Profile.self_s -. point.Profile.total_s) < 1e-12);
  let table = Profile.to_table ~top:3 rows in
  Alcotest.(check bool) "table renders the hottest rows" true
    (String.length table > 0)

let test_profile_percentiles () =
  let span ?(children = []) name duration =
    {
      Span.name;
      attrs = [];
      t_start = 0.;
      duration;
      outcome = Span.Completed;
      children;
    }
  in
  let leaves = List.map (span "test.prof.leaf") in
  let roots =
    [
      span "test.prof.outer" 10. ~children:(leaves [ 0.5; 3.; 1. ]);
      span "test.prof.outer" 4. ~children:(leaves [ 2.; 0.25 ]);
    ]
  in
  let rows = Profile.of_spans roots in
  let check name durations ~p50 ~p95 =
    let r = List.find (fun (r : Profile.row) -> r.Profile.name = name) rows in
    Alcotest.(check int) (name ^ " count") (List.length durations)
      r.Profile.count;
    Alcotest.(check (float 0.)) (name ^ " p50 is Stats.percentile")
      (Aging_util.Stats.percentile 50. durations) r.Profile.p50_s;
    Alcotest.(check (float 0.)) (name ^ " p95 is Stats.percentile")
      (Aging_util.Stats.percentile 95. durations) r.Profile.p95_s;
    Alcotest.(check (float 1e-12)) (name ^ " p50") p50 r.Profile.p50_s;
    Alcotest.(check (float 1e-12)) (name ^ " p95") p95 r.Profile.p95_s;
    Alcotest.(check bool) (name ^ " p95 <= largest duration") true
      (r.Profile.p95_s <= List.fold_left Float.max 0. durations)
  in
  check "test.prof.leaf" [ 0.5; 3.; 1.; 2.; 0.25 ] ~p50:1. ~p95:2.8;
  check "test.prof.outer" [ 10.; 4. ] ~p50:7. ~p95:9.7

(* ---------------------------- runtime totals ---------------------------- *)

module Runtime = Aging_obs.Runtime

let gauge_value name =
  match Metrics.value_by_name name with
  | Some v -> v
  | None -> Alcotest.failf "gauge %s missing" name

(* Totals read GC work and (on procfs platforms) memory; a ledger capture
   samples them once into the runtime.* gauges of the record's snapshot. *)
let test_runtime_totals () =
  let totals = Runtime.totals () in
  Alcotest.(check bool) "totals: minor words positive" true
    (totals.Runtime.minor_words > 0.);
  Alcotest.(check bool) "totals: heap positive" true
    (totals.Runtime.heap_mb > 0.);
  Alcotest.(check bool) "totals: top heap >= heap" true
    (totals.Runtime.top_heap_mb >= totals.Runtime.heap_mb);
  (match totals.Runtime.rss_mb with
  | Some rss ->
    Alcotest.(check bool) "totals rss plausible" true (rss > 1.);
    (match totals.Runtime.hwm_mb with
    | Some hwm -> Alcotest.(check bool) "hwm >= rss" true (hwm >= rss -. 1.)
    | None -> ())
  | None -> ());
  Metrics.reset ();
  let r =
    Run_ledger.capture ~tool:"test" ~subcommand:"runtime" ~started_at:0.
      ~wall_s:0. ()
  in
  Alcotest.(check bool) "heap gauge positive" true
    (gauge_value "runtime.gc.heap_mb" > 0.);
  Alcotest.(check bool) "minor words gauge positive" true
    (gauge_value "runtime.gc.minor_words" > 0.);
  (match Metrics.value_by_name "runtime.mem.rss_mb" with
  | Some rss -> Alcotest.(check bool) "rss gauge plausible" true (rss > 1.)
  | None -> ());
  Alcotest.(check bool) "record snapshot carries the GC gauges" true
    (Json.member "runtime.gc.minor_words" r.Run_ledger.metrics <> None
    && Json.member "runtime.gc.major_collections" r.Run_ledger.metrics
       <> None)

(* ------------------------------- history ------------------------------- *)

module History = Aging_obs.History

let test_history_median_mad () =
  Alcotest.(check (float 1e-9)) "odd median" 3.
    (History.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 1e-9)) "even median" 2.5
    (History.median [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check bool) "empty median is nan" true
    (Float.is_nan (History.median [||]));
  Alcotest.(check (float 1e-9)) "mad" 1.
    (History.mad [| 1.; 2.; 3.; 4.; 5. |]);
  Alcotest.(check (float 1e-9)) "nan entries ignored" 2.
    (History.median [| 1.; Float.nan; 2.; 3. |])

let test_history_drift () =
  let flat = [| 10.; 10.; 10.; 10.; 10. |] in
  Alcotest.(check bool) "flat window, matching value passes" false
    (History.drift ~z_thresh:4. ~window:flat 10.).History.drifting;
  let v = History.drift ~z_thresh:4. ~window:flat 50. in
  Alcotest.(check bool) "flat window, 5x step trips" true v.History.drifting;
  Alcotest.(check bool) "step off flat is infinite z" true
    (v.History.z = infinity);
  let noisy = [| 10.; 11.; 9.; 10.; 12.; 10.; 9.5 |] in
  Alcotest.(check bool) "in-band value passes" false
    (History.drift ~z_thresh:4. ~window:noisy 10.5).History.drifting;
  Alcotest.(check bool) "5x step trips a noisy window too" true
    (History.drift ~z_thresh:4. ~window:noisy 50.).History.drifting;
  (* One-sided: improvement is never drift. *)
  Alcotest.(check bool) "one-sided ignores decreases" false
    (History.drift ~one_sided:true ~z_thresh:4. ~window:noisy 0.)
      .History.drifting;
  Alcotest.(check bool) "one-sided still trips increases" true
    (History.drift ~one_sided:true ~z_thresh:4. ~window:noisy 50.)
      .History.drifting

let test_history_sparkline () =
  let s = History.sparkline [| 1.; 8. |] in
  Alcotest.(check string) "min and max blocks" "\xe2\x96\x81\xe2\x96\x88" s;
  Alcotest.(check string) "nan renders as space" " "
    (History.sparkline [| Float.nan |]);
  Alcotest.(check string) "empty" "" (History.sparkline [||]);
  (* Flat series renders mid blocks, one per value. *)
  let flat = History.sparkline [| 2.; 2.; 2. |] in
  Alcotest.(check int) "one block char per value" 9 (String.length flat)

let capture_with_qor name v =
  Run_ledger.note_qor name v;
  Run_ledger.capture ~tool:"test" ~subcommand:"hist" ~started_at:0. ~wall_s:0.
    ()

let test_history_rows_and_gate () =
  Metrics.reset ();
  let records = List.map (capture_with_qor "q") [ 10.; 10.1; 9.9; 10.; 10. ] in
  (match History.rows_of_records records with
  | rows -> begin
    match List.find_opt (fun r -> r.History.r_name = "q") rows with
    | None -> Alcotest.fail "qor row missing"
    | Some row ->
      Alcotest.(check bool) "two-sided qor row" false row.History.r_one_sided;
      Alcotest.(check int) "one value per record" 5
        (Array.length row.History.r_values);
      Alcotest.(check (float 1e-9)) "oldest first" 10.
        row.History.r_values.(0);
      let g = History.gate row in
      Alcotest.(check bool) "flat ledger passes" true
        (g.History.g_status = History.Pass)
  end);
  (* A 5x step in the newest record trips the gate. *)
  let drifted = records @ [ capture_with_qor "q" 50. ] in
  let row =
    List.find (fun r -> r.History.r_name = "q")
      (History.rows_of_records drifted)
  in
  let g = History.gate row in
  Alcotest.(check bool) "5x step drifts" true
    (g.History.g_status = History.Drift);
  Alcotest.(check (float 1e-9)) "last value surfaced" 50. g.History.g_last;
  (* Too little history: informational, never a gate failure. *)
  let short =
    List.filteri (fun i _ -> i < 3) drifted
    |> History.rows_of_records
    |> List.find (fun r -> r.History.r_name = "q")
  in
  Alcotest.(check bool) "short window is Short" true
    ((History.gate short).History.g_status = History.Short)

let test_history_health_counter_one_sided () =
  Metrics.reset ();
  let retried = Metrics.counter "characterize.points.retried" in
  let mk () =
    Run_ledger.capture ~tool:"test" ~subcommand:"hist" ~started_at:0.
      ~wall_s:0. ()
  in
  let quiet = List.init 5 (fun _ -> mk ()) in
  Metrics.incr ~by:3 retried;
  let records = quiet @ [ mk () ] in
  let row =
    match
      List.find_opt
        (fun r -> r.History.r_name = "characterize.points.retried")
        (History.rows_of_records records)
    with
    | Some row -> row
    | None -> Alcotest.fail "health counter series missing"
  in
  Alcotest.(check bool) "health counter is one-sided" true
    row.History.r_one_sided;
  Alcotest.(check bool) "retries appearing from zero drift" true
    ((History.gate row).History.g_status = History.Drift);
  (* The reverse direction — counters falling back to zero — passes. *)
  let falling =
    {
      row with
      History.r_values = [| 3.; 3.; 3.; 3.; 3.; 0. |];
    }
  in
  Alcotest.(check bool) "improvement passes one-sided" true
    ((History.gate falling).History.g_status = History.Pass)

let suite =
  [
    Alcotest.test_case "counter get-or-create / reset" `Quick test_counter;
    Alcotest.test_case "metric kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "metrics JSON export" `Quick test_metrics_json;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parse;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "log levels" `Quick test_log_levels;
    Alcotest.test_case "build counters match report (clean)" `Slow
      test_build_metrics_clean;
    Alcotest.test_case "build counters match report (retried)" `Slow
      test_build_metrics_retried;
    Alcotest.test_case "build counters match report (parallel)" `Slow
      test_build_metrics_parallel;
    Alcotest.test_case "non-finite float JSON" `Quick test_nonfinite_floats;
    Alcotest.test_case "span JSON round trip" `Quick test_span_json_roundtrip;
    Alcotest.test_case "ledger capture/append/load" `Quick
      test_ledger_roundtrip;
    Alcotest.test_case "ledger selectors" `Quick test_ledger_select;
    Alcotest.test_case "ledger skips corrupt lines" `Quick
      test_ledger_corrupt_lines;
    Alcotest.test_case "ledger concurrent appends" `Slow
      test_ledger_concurrent_appends;
    Alcotest.test_case "chrome trace export (parallel build)" `Slow
      test_trace_export_parallel;
    Alcotest.test_case "profile percentiles are exact" `Quick
      test_profile_percentiles;
    Alcotest.test_case "profile self times telescope" `Slow
      test_profile_telescopes;
    Alcotest.test_case "runtime sampler gauges and totals" `Quick
      test_runtime_totals;
    Alcotest.test_case "history median/mad" `Quick test_history_median_mad;
    Alcotest.test_case "history robust drift" `Quick test_history_drift;
    Alcotest.test_case "history sparkline" `Quick test_history_sparkline;
    Alcotest.test_case "history rows and gate over a ledger" `Quick
      test_history_rows_and_gate;
    Alcotest.test_case "history health counters gate one-sided" `Quick
      test_history_health_counter_one_sided;
  ]
