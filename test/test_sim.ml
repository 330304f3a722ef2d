module N = Aging_netlist.Netlist
module Event_sim = Aging_sim.Event_sim
module Activity = Aging_sim.Activity
module Scenario = Aging_physics.Scenario
module Designs = Aging_designs.Designs
module Rng = Aging_util.Rng

let fresh () = Lazy.force Fixtures.fresh_library

let random_stimulus design seed =
  let rng = Rng.create seed in
  let vectors =
    Array.init 64 (fun _ ->
        List.map (fun (p, _) -> (p, Rng.bool rng)) design.N.input_ports)
  in
  fun n -> vectors.(n mod 64)

let test_event_sim_matches_reference_at_slow_clock () =
  List.iter
    (fun design ->
      let sim = Event_sim.prepare ~library:(fresh ()) design in
      let stimulus = random_stimulus design 5L in
      let period = 3. *. Event_sim.min_period sim in
      let trace = Event_sim.run sim ~period ~cycles:48 ~stimulus in
      let reference = Event_sim.run_functional design ~cycles:48 ~stimulus in
      Alcotest.(check int) "no timing errors" 0 trace.Event_sim.timing_errors;
      Array.iteri
        (fun i outs ->
          if List.sort compare outs <> List.sort compare reference.(i) then
            Alcotest.failf "%s: outputs diverge at cycle %d"
              design.N.design_name i)
        trace.Event_sim.outputs)
    [ Designs.counter ~bits:6; Designs.dsp () ]

let test_event_sim_errors_at_fast_clock () =
  let design = Designs.dsp () in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  let stimulus = random_stimulus design 7L in
  let trace =
    Event_sim.run sim ~period:(0.3 *. Event_sim.min_period sim) ~cycles:60
      ~stimulus
  in
  Alcotest.(check bool) "timing errors appear" true (trace.Event_sim.timing_errors > 0)

let test_event_sim_error_monotonicity () =
  let design = Designs.dsp () in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  let stimulus = random_stimulus design 9L in
  let errors frac =
    (Event_sim.run sim
       ~period:(frac *. Event_sim.min_period sim)
       ~cycles:60 ~stimulus).Event_sim.timing_errors
  in
  Alcotest.(check bool) "fewer errors at slower clock" true (errors 0.9 <= errors 0.35)

(* Exact traces of the DSP design on the test fresh library, recorded with
   the kernel at commit c891384 (boxed-payload heap, per-event logic
   closures).  Error counts alone cannot catch a kernel that reorders
   same-time events or drops inertial cancellation; the output digests
   and exact counts can. *)
let golden_traces =
  (* seed, period / min_period, timing errors, digest of the outputs *)
  [
    (7L, 0.3, 751, "4c645013f7906a99d410f736abca4594");
    (7L, 0.5, 143, "172641155993f618e67d6632bfd492f0");
    (7L, 0.6, 28, "a3c74ec7704cefb34ce6bb115a3fdbe2");
    (7L, 0.7, 0, "c12742b33527bd4488e51a8b0a675310");
    (7L, 0.9, 0, "c12742b33527bd4488e51a8b0a675310");
    (9L, 0.3, 755, "58c9319406c8fbde74cdf86488031748");
    (9L, 0.5, 136, "862a66fe9be4fabba1fe53952410d41e");
    (9L, 0.6, 18, "cac91af1642716e0267ab9a6722c2ea1");
    (9L, 0.7, 0, "34bd40d2ddd4de5f16703d4493067474");
    (9L, 0.9, 0, "34bd40d2ddd4de5f16703d4493067474");
  ]

let outputs_digest outputs =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun outs ->
      List.iter
        (fun (port, v) ->
          Buffer.add_string buf port;
          Buffer.add_char buf (if v then '1' else '0'))
        outs;
      Buffer.add_char buf ';')
    outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_event_sim_golden () =
  let design = Designs.dsp () in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  List.iter
    (fun (seed, frac, errors, digest) ->
      let trace =
        Event_sim.run sim
          ~period:(frac *. Event_sim.min_period sim)
          ~cycles:60 ~stimulus:(random_stimulus design seed)
      in
      let label = Printf.sprintf "seed %Ld at %g x min_period" seed frac in
      Alcotest.(check int) (label ^ ": timing errors") errors
        trace.Event_sim.timing_errors;
      Alcotest.(check string) (label ^ ": outputs") digest
        (outputs_digest trace.Event_sim.outputs))
    golden_traces

let test_event_sim_validation () =
  let design = Designs.counter ~bits:2 in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  Alcotest.check_raises "period" (Invalid_argument "Event_sim.run: period <= 0")
    (fun () ->
      ignore (Event_sim.run sim ~period:0. ~cycles:1 ~stimulus:(fun _ -> [ ("en", true) ])));
  Alcotest.check_raises "unknown input"
    (Failure "Event_sim.run: unknown input bogus")
    (fun () ->
      ignore
        (Event_sim.run sim ~period:1e-9 ~cycles:1
           ~stimulus:(fun _ -> [ ("en", true); ("bogus", true) ])));
  Alcotest.check_raises "unbound input" (Failure "Netlist.eval: missing input en")
    (fun () -> ignore (Event_sim.run sim ~period:1e-9 ~cycles:1 ~stimulus:(fun _ -> [])))

let test_activity_profile () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:64 ~stimulus:(fun _ -> [ ("en", true) ])
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "probability in range" true (p >= 0. && p <= 1.))
    profile.Activity.p_high;
  (* Counter bit 0 toggles every cycle: its probability is ~0.5. *)
  let _, q0 = List.hd design.N.output_ports in
  Alcotest.(check bool) "lsb near half" true
    (Float.abs (profile.Activity.p_high.(q0) -. 0.5) < 0.05);
  Alcotest.(check bool) "lsb toggles a lot" true (profile.Activity.toggles.(q0) > 30)

let test_activity_constant_input () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:32 ~stimulus:(fun _ -> [ ("en", false) ])
  in
  let _, en_net = List.hd design.N.input_ports in
  Alcotest.(check (float 0.)) "disabled input stays low" 0.
    profile.Activity.p_high.(en_net)

let test_instance_corner_complementary () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:64 ~stimulus:(fun _ -> [ ("en", true) ])
  in
  Array.iter
    (fun (inst : N.instance) ->
      if not (N.is_flipflop inst) && inst.N.inputs <> [] then begin
        let c = Activity.instance_corner profile inst in
        Fixtures.check_close ~tol:1e-9 "lambda_p + lambda_n = 1" 1.
          (c.Scenario.lambda_p +. c.Scenario.lambda_n)
      end)
    design.N.instances

let test_annotate_and_corners_used () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:64 ~stimulus:(fun _ -> [ ("en", true) ])
  in
  let annotated = Activity.annotate design profile in
  Array.iter
    (fun (inst : N.instance) ->
      Alcotest.(check bool) "corner suffix present" true
        (String.contains inst.N.cell_name '@'))
    annotated.N.instances;
  let corners = Activity.corners_used annotated in
  Alcotest.(check bool) "at least one corner" true (corners <> []);
  let grid = Scenario.grid () in
  List.iter
    (fun c ->
      Alcotest.(check bool) "snapped to grid" true
        (List.exists (Scenario.equal c) grid))
    corners;
  Alcotest.(check bool) "functional behaviour unchanged" true
    (Fixtures.equivalent design annotated)

let test_activity_validation () =
  let design = Designs.counter ~bits:2 in
  Alcotest.check_raises "cycles" (Invalid_argument "Activity.profile: cycles <= 0")
    (fun () ->
      ignore (Activity.profile design ~cycles:0 ~stimulus:(fun _ -> [ ("en", true) ])))

let prop_event_sim_deterministic =
  Fixtures.qtest ~count:5 "event simulation is deterministic"
    QCheck2.Gen.int64
    (fun seed ->
      let design = Designs.counter ~bits:4 in
      let sim = Event_sim.prepare ~library:(Lazy.force Fixtures.fresh_library) design in
      let stimulus = random_stimulus design seed in
      let run () =
        (Event_sim.run sim ~period:2e-10 ~cycles:20 ~stimulus).Event_sim.outputs
      in
      run () = run ())

let suite =
  [
    ("event sim: matches reference at slow clock", `Quick,
      test_event_sim_matches_reference_at_slow_clock);
    ("event sim: errors at fast clock", `Quick, test_event_sim_errors_at_fast_clock);
    ("event sim: error monotonicity", `Quick, test_event_sim_error_monotonicity);
    ("event sim: golden traces", `Quick, test_event_sim_golden);
    ("event sim: validation", `Quick, test_event_sim_validation);
    ("activity: counter profile", `Quick, test_activity_profile);
    ("activity: constant input", `Quick, test_activity_constant_input);
    ("activity: complementary duty cycles", `Quick, test_instance_corner_complementary);
    ("activity: annotation", `Quick, test_annotate_and_corners_used);
    ("activity: validation", `Quick, test_activity_validation);
  ]

let props = [ prop_event_sim_deterministic ]
