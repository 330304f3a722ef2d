module Device = Aging_physics.Device
module Bti = Aging_physics.Bti
module Degradation = Aging_physics.Degradation
module Scenario = Aging_physics.Scenario

let check = Alcotest.(check (float 1e-12))

let test_duty_factor_ends () =
  check "lambda 0" 0. (Bti.duty_factor 0.);
  check "lambda 1" 1. (Bti.duty_factor 1.);
  Alcotest.(check bool) "half below 1" true (Bti.duty_factor 0.5 < 1.);
  Alcotest.(check bool) "half above dc share" true (Bti.duty_factor 0.5 > 0.5)

let prop_duty_monotone =
  Fixtures.qtest "duty factor monotone"
    QCheck2.Gen.(pair (float_range 0. 1.) (float_range 0. 1.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Bti.duty_factor lo <= Bti.duty_factor hi +. 1e-12)

let test_traps_zero_cases () =
  let s0 = Bti.stress ~duty:0. () in
  check "no stress, no interface traps" 0. (Bti.interface_traps Device.Pmos s0);
  check "no stress, no oxide traps" 0. (Bti.oxide_traps Device.Pmos s0);
  let s1 = Bti.stress ~years:0. ~duty:1. () in
  check "no time, no traps" 0. (Bti.interface_traps Device.Pmos s1)

let test_pbti_weaker () =
  let s = Bti.stress ~duty:1. () in
  Alcotest.(check bool) "PBTI < NBTI" true
    (Bti.interface_traps Device.Nmos s < Bti.interface_traps Device.Pmos s);
  Fixtures.check_close ~tol:1e-9 "scale ratio"
    Bti.pbti_scale
    (Bti.interface_traps Device.Nmos s /. Bti.interface_traps Device.Pmos s)

let prop_traps_monotone_in_time =
  Fixtures.qtest "interface traps grow with time"
    QCheck2.Gen.(pair (float_range 0.1 10.) (float_range 0.1 10.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let traps years =
        Bti.interface_traps Device.Pmos (Bti.stress ~years ~duty:0.8 ())
      in
      traps lo <= traps hi +. 1e-3)

let test_stress_validation () =
  Alcotest.check_raises "duty range" (Invalid_argument "Bti.stress: duty outside [0,1]")
    (fun () -> ignore (Bti.stress ~duty:1.5 ()));
  Alcotest.check_raises "negative years" (Invalid_argument "Bti.stress: negative years")
    (fun () -> ignore (Bti.stress ~years:(-1.) ~duty:0.5 ()))

let test_degradation_magnitude () =
  (* Worst-case 10-year NBTI budget should be a realistic 45 nm number:
     tens of millivolts. *)
  let d =
    Degradation.of_stress (Device.pmos ~w:Device.w_min) (Bti.stress ~duty:1. ())
  in
  Alcotest.(check bool) "delta_vth in 40..120 mV" true
    (d.Degradation.delta_vth > 0.04 && d.Degradation.delta_vth < 0.12);
  Alcotest.(check bool) "mobility factor in (0.9, 1)" true
    (d.Degradation.mu_factor > 0.9 && d.Degradation.mu_factor < 1.

    )

let test_vth_only_mode () =
  let stress = Bti.stress ~duty:1. () in
  let d =
    Degradation.of_stress ~mode:Degradation.Vth_only (Device.pmos ~w:Device.w_min) stress
  in
  check "mu untouched" 1. d.Degradation.mu_factor;
  let full = Degradation.of_stress (Device.pmos ~w:Device.w_min) stress in
  check "same vth shift" full.Degradation.delta_vth d.Degradation.delta_vth

let test_apply () =
  let fresh = Device.nmos ~w:Device.w_min in
  let aged = Degradation.apply fresh (Bti.stress ~duty:1. ()) in
  Alcotest.(check bool) "vth grew" true
    (Device.effective_vth aged > Device.effective_vth fresh);
  Alcotest.(check bool) "mu shrank" true (aged.Device.mu_factor < 1.)

let test_with_aging_validation () =
  let d = Device.nmos ~w:Device.w_min in
  Alcotest.check_raises "negative shift"
    (Invalid_argument "Device.with_aging: negative delta_vth") (fun () ->
      ignore (Device.with_aging ~delta_vth:(-0.1) ~mu_factor:1. d));
  Alcotest.check_raises "mu range"
    (Invalid_argument "Device.with_aging: mu_factor outside (0,1]") (fun () ->
      ignore (Device.with_aging ~delta_vth:0.1 ~mu_factor:1.5 d))

let test_device_capacitances () =
  let d = Device.nmos ~w:Device.w_min in
  let d2 = Device.nmos ~w:(2. *. Device.w_min) in
  Alcotest.(check bool) "gate cap positive" true (Device.gate_capacitance d > 0.);
  Alcotest.(check bool) "gate cap grows with width" true
    (Device.gate_capacitance d2 > Device.gate_capacitance d);
  Alcotest.(check bool) "drain cap grows with width" true
    (Device.drain_capacitance d2 > Device.drain_capacitance d)

let test_grid () =
  Alcotest.(check int) "121 corners" 121 (List.length (Scenario.grid ()));
  Alcotest.(check int) "9 coarse corners" 9 (List.length (Scenario.grid ~step:0.5 ()));
  Alcotest.check_raises "bad step" (Invalid_argument "Scenario.grid: step does not divide 1")
    (fun () -> ignore (Scenario.grid ~step:0.3 ()))

let test_suffix_roundtrip () =
  List.iter
    (fun corner ->
      match Scenario.of_suffix (Scenario.suffix corner) with
      | Some c -> Alcotest.(check bool) "roundtrip" true (Scenario.equal c corner)
      | None -> Alcotest.fail "suffix did not parse")
    (Scenario.grid ())

let test_suffix_malformed () =
  Alcotest.(check bool) "garbage" true (Scenario.of_suffix "zz" = None);
  Alcotest.(check bool) "out of range" true (Scenario.of_suffix "1.5_0.2" = None);
  Alcotest.(check bool) "missing part" true (Scenario.of_suffix "0.4" = None)

let test_indexed_names () =
  Alcotest.(check string) "indexed name" "NAND2_X1@0.4_0.6"
    (Scenario.indexed_name "NAND2_X1"
       (Scenario.corner ~lambda_p:0.4 ~lambda_n:0.6));
  let base, corner = Scenario.split_indexed "NAND2_X1@0.4_0.6" in
  Alcotest.(check string) "base" "NAND2_X1" base;
  (match corner with
  | Some c ->
    Alcotest.(check bool) "corner" true
      (Scenario.equal c (Scenario.corner ~lambda_p:0.4 ~lambda_n:0.6))
  | None -> Alcotest.fail "no corner");
  Alcotest.(check bool) "plain name" true
    (snd (Scenario.split_indexed "INV_X1") = None)

let test_snap () =
  let c = Scenario.snap (Scenario.corner ~lambda_p:0.44 ~lambda_n:0.78) in
  check "snap p" 0.4 c.Scenario.lambda_p;
  check "snap n" 0.8 c.Scenario.lambda_n

let test_fresh_scenario_identity () =
  let scenario = Scenario.scenario Scenario.fresh in
  let fresh = Device.pmos ~w:Device.w_min in
  let aged = Scenario.age_device scenario fresh in
  check "no vth shift" 0. aged.Device.delta_vth;
  check "no mobility loss" 1. aged.Device.mu_factor

let test_defect_scale () =
  let stress = Bti.stress ~duty:1. () in
  let base = Degradation.of_stress (Device.pmos ~w:Device.w_min) stress in
  let bounded =
    Degradation.of_stress ~defect_scale:2. (Device.pmos ~w:Device.w_min) stress
  in
  Fixtures.check_close ~tol:1e-9 "vth scales with defect count"
    (2. *. base.Degradation.delta_vth) bounded.Degradation.delta_vth;
  Alcotest.(check bool) "mobility loss grows" true
    (bounded.Degradation.mu_factor < base.Degradation.mu_factor);
  Alcotest.check_raises "negative scale"
    (Invalid_argument "Degradation.of_stress: negative defect_scale")
    (fun () ->
      ignore (Degradation.of_stress ~defect_scale:(-1.) (Device.pmos ~w:Device.w_min) stress))

let test_scenario_defect_scale () =
  let plain = Scenario.scenario Scenario.worst_case in
  let bound = Scenario.scenario ~defect_scale:1.5 Scenario.worst_case in
  let vth scenario =
    (Scenario.age_device scenario (Device.pmos ~w:Device.w_min)).Device.delta_vth
  in
  Alcotest.(check bool) "6-sigma-style bound ages more" true (vth bound > vth plain)

let test_temperature_acceleration () =
  let cold = Bti.stress ~temp_k:300. ~duty:1. () in
  let hot = Bti.stress ~temp_k:400. ~duty:1. () in
  Alcotest.(check bool) "hotter ages faster" true
    (Bti.interface_traps Device.Pmos hot > Bti.interface_traps Device.Pmos cold)

let test_field_acceleration () =
  let low = Bti.stress ~vstress:0.9 ~duty:1. () in
  let high = Bti.stress ~vstress:1.3 ~duty:1. () in
  Alcotest.(check bool) "higher stress voltage ages faster" true
    (Bti.oxide_traps Device.Pmos high > Bti.oxide_traps Device.Pmos low)

let test_sublinear_time () =
  (* t^{1/6} kinetics: doubling the lifetime grows traps by far less
     than 2x. *)
  let t1 = Bti.interface_traps Device.Pmos (Bti.stress ~years:5. ~duty:1. ()) in
  let t2 = Bti.interface_traps Device.Pmos (Bti.stress ~years:10. ~duty:1. ()) in
  Alcotest.(check bool) "sublinear growth" true (t2 < 1.3 *. t1 && t2 > t1)

let test_corner_validation () =
  Alcotest.check_raises "range" (Invalid_argument "Scenario.corner: lambda_p outside [0,1]")
    (fun () -> ignore (Scenario.corner ~lambda_p:2. ~lambda_n:0.))

let suite =
  [
    ("bti: duty factor endpoints", `Quick, test_duty_factor_ends);
    ("bti: zero stress cases", `Quick, test_traps_zero_cases);
    ("bti: PBTI weaker than NBTI", `Quick, test_pbti_weaker);
    ("bti: stress validation", `Quick, test_stress_validation);
    ("degradation: worst-case magnitude", `Quick, test_degradation_magnitude);
    ("degradation: vth-only mode", `Quick, test_vth_only_mode);
    ("degradation: apply to device", `Quick, test_apply);
    ("device: with_aging validation", `Quick, test_with_aging_validation);
    ("device: capacitances", `Quick, test_device_capacitances);
    ("scenario: corner grid", `Quick, test_grid);
    ("scenario: suffix roundtrip", `Quick, test_suffix_roundtrip);
    ("scenario: malformed suffix", `Quick, test_suffix_malformed);
    ("scenario: indexed names", `Quick, test_indexed_names);
    ("scenario: snapping", `Quick, test_snap);
    ("scenario: fresh is identity", `Quick, test_fresh_scenario_identity);
    ("scenario: corner validation", `Quick, test_corner_validation);
    ("degradation: variability bound", `Quick, test_defect_scale);
    ("scenario: variability bound", `Quick, test_scenario_defect_scale);
    ("bti: temperature acceleration", `Quick, test_temperature_acceleration);
    ("bti: field acceleration", `Quick, test_field_acceleration);
    ("bti: sublinear time kinetics", `Quick, test_sublinear_time);
  ]

let props = [ prop_duty_monotone; prop_traps_monotone_in_time ]
