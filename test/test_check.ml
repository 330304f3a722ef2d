(* Tests for the property runner itself (lib/check: case seeds, replay,
   shrinking over QCheck2 generators) plus the coverage that rides on it:
   fixture identity across job counts, SDF round-trips on a generated
   netlist, and PGM-file / DCT-bound checks on generated inputs. *)

module Rng = Aging_util.Rng
module Gen = QCheck2.Gen
module Runner = Aging_check.Runner
module Netgen = Aging_check.Netgen
module Oracles = Aging_check.Oracles
module Sdf = Aging_sta.Sdf
module Timing = Aging_sta.Timing
module Image = Aging_image.Image
module Pgm = Aging_image.Pgm
module Dct = Aging_image.Dct

(* ----------------------------- seeds ----------------------------- *)

let test_rng_derive () =
  Alcotest.(check int64) "derive s 0 = s" 1234L (Rng.derive 1234L 0);
  let seen = Hashtbl.create 64 in
  for k = 0 to 63 do
    Hashtbl.replace seen (Rng.derive 1234L k) ()
  done;
  Alcotest.(check int) "64 distinct case seeds" 64 (Hashtbl.length seen)

(* ----------------------------- runner ----------------------------- *)

let test_gen_deterministic () =
  let a = Runner.generate ~seed:42L Netgen.spec in
  let b = Runner.generate ~seed:42L Netgen.spec in
  Alcotest.(check bool) "same seed, same spec" true (a = b);
  let c = Runner.generate ~seed:43L Netgen.spec in
  Alcotest.(check bool) "different seed, different spec" false (a = c)

let test_runner_replays_cases () =
  (* The same seed must feed the property the same inputs, in order. *)
  let record () =
    let xs = ref [] in
    let prop s =
      xs := s :: !xs;
      Ok ()
    in
    let outcome =
      Runner.run ~cases:40 ~seed:11L ~name:"record" ~print:Netgen.pp_spec
        ~gen:Netgen.spec prop
    in
    Alcotest.(check bool) "all pass" true (Runner.passed outcome);
    List.rev !xs
  in
  Alcotest.(check bool) "two runs, same inputs" true (record () = record ())

let test_runner_case_inputs () =
  (* The replay contract: case [i] of a run at seed [S] sees exactly the
     input [generate] draws from the case seed [derive S i]. *)
  let seen = ref [] in
  let outcome =
    Runner.run ~cases:8 ~seed:11L ~name:"inputs" ~print:Netgen.pp_spec
      ~gen:Netgen.spec (fun s ->
        seen := s :: !seen;
        Ok ())
  in
  Alcotest.(check int) "eight cases" 8 outcome.Runner.cases_run;
  List.iteri
    (fun i s ->
      Alcotest.(check string)
        (Printf.sprintf "case %d" i)
        (Netgen.pp_spec (Runner.generate ~seed:(Rng.derive 11L i) Netgen.spec))
        (Netgen.pp_spec s))
    (List.rev !seen)

let test_shrink_int_minimal () =
  let outcome =
    Runner.run ~cases:200 ~seed:3L ~name:"int<37" ~print:string_of_int
      ~gen:(Gen.int_range 0 1000)
      (fun x -> if x < 37 then Ok () else Error "too big")
  in
  match outcome.Runner.failures with
  | [ f ] ->
    Alcotest.(check string) "shrinks to the boundary" "37"
      f.Runner.counterexample
  | _ -> Alcotest.fail "expected exactly one failure"

let test_shrink_list_minimal () =
  let print l = String.concat "," (List.map string_of_int l) in
  let outcome =
    Runner.run ~cases:200 ~seed:9L ~name:"len<=4" ~print
      ~gen:(Gen.list_size (Gen.int_range 0 10) (Gen.int_range 0 100))
      (fun l -> if List.length l <= 4 then Ok () else Error "too long")
  in
  match outcome.Runner.failures with
  | [ f ] ->
    Alcotest.(check string) "minimal 5-element all-zero list" "0,0,0,0,0"
      f.Runner.counterexample
  | _ -> Alcotest.fail "expected exactly one failure"

let test_failure_seed_replays () =
  let gen = Gen.int_range 0 1000 in
  let prop x = if x < 37 then Ok () else Error "too big" in
  let outcome =
    Runner.run ~cases:200 ~seed:3L ~name:"replay" ~print:string_of_int ~gen
      prop
  in
  match outcome.Runner.failures with
  | [ f ] ->
    (* The replay line must parse even for a negative case seed. *)
    Alcotest.(check bool) "replay line uses --seed=" true
      (Fixtures.contains
         ~needle:(Printf.sprintf "--seed=%Ld --cases 1" f.Runner.case_seed)
         (Runner.pp_outcome outcome));
    let again =
      Runner.run ~cases:1 ~seed:f.Runner.case_seed ~name:"replay-1"
        ~print:string_of_int ~gen prop
    in
    (match again.Runner.failures with
     | [ g ] ->
       Alcotest.(check string) "replayed case shrinks to the same minimum"
         f.Runner.counterexample g.Runner.counterexample
     | _ -> Alcotest.fail "replay did not fail")
  | _ -> Alcotest.fail "expected exactly one failure"

let test_netgen_well_formed () =
  for seed = 0 to 19 do
    let s = Runner.generate ~seed:(Int64.of_int seed) Netgen.spec in
    let n = Netgen.build s in
    let order = Aging_netlist.Netlist.combinational_order n in
    Alcotest.(check bool) "acyclic (topological order exists)" true
      (List.length order > 0)
  done

(* --------------------------- the oracles --------------------------- *)

let test_oracle_catalog () =
  let all = Oracles.all () in
  Alcotest.(check int) "ten oracles" 10 (List.length all);
  List.iter
    (fun (o : Oracles.t) ->
      match Oracles.find o.Oracles.name with
      | Some o' -> Alcotest.(check string) "find" o.Oracles.name o'.Oracles.name
      | None -> Alcotest.failf "find %s" o.Oracles.name)
    all;
  Alcotest.(check bool) "unknown name" true (Oracles.find "bogus" = None)

let oracle_case (o : Oracles.t) () =
  let outcome = o.Oracles.run ~seed:2026L ~cases:10 ~jobs:2 in
  if not (Runner.passed outcome) then
    Alcotest.failf "oracle failed:\n%s" (Runner.pp_outcome outcome)

let oracle_tests =
  List.map
    (fun (o : Oracles.t) ->
      Alcotest.test_case ("oracle " ^ o.Oracles.name) `Slow (oracle_case o))
    (Oracles.all ())

(* ---------------- fixture identity across job counts ---------------- *)

let test_fixture_jobs_identity () =
  match Fixtures.jobs_identity_error () with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* ------------------- SDF on a generated netlist ------------------- *)

let test_sdf_roundtrip_generated () =
  let spec = Runner.generate ~seed:2024L Netgen.spec in
  let n = Netgen.build spec in
  let analysis = Timing.analyze ~library:(Lazy.force Fixtures.fresh_library) n in
  let sdf = Sdf.of_analysis analysis in
  Alcotest.(check bool) "instances annotated" true (sdf.Sdf.cells <> []);
  let s = Sdf.to_string sdf in
  match Sdf.of_string s with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok sdf2 ->
    Alcotest.(check string) "write -> parse -> write fixpoint" s
      (Sdf.to_string sdf2);
    Alcotest.(check string) "design preserved" sdf.Sdf.design sdf2.Sdf.design;
    List.iter
      (fun (c : Sdf.cell) ->
        List.iter
          (fun (io : Sdf.iopath) ->
            List.iter
              (fun (t : Sdf.triple) ->
                if
                  not
                    (t.Sdf.d_min >= 0.
                     && t.Sdf.d_min <= t.Sdf.d_typ
                     && t.Sdf.d_typ <= t.Sdf.d_max
                     && Float.is_finite t.Sdf.d_max)
                then
                  Alcotest.failf "bad triple on %s %s->%s: %g/%g/%g"
                    c.Sdf.instance io.Sdf.from_pin io.Sdf.to_pin t.Sdf.d_min
                    t.Sdf.d_typ t.Sdf.d_max)
              [ io.Sdf.rise; io.Sdf.fall ])
          c.Sdf.iopaths)
      sdf2.Sdf.cells

(* ------------------ PGM files and DCT error bound ------------------ *)

let image_gen =
  let open Gen in
  let* w = int_range 1 16 in
  let* h = int_range 1 16 in
  let+ pixels = list_repeat (w * h) (int_range 0 255) in
  { Image.width = w; height = h; pixels = Array.of_list pixels }

let test_pgm_file_roundtrip () =
  List.iteri
    (fun i binary ->
      let img = Runner.generate ~seed:(Int64.of_int (100 + i)) image_gen in
      let path = Filename.temp_file "aging_pgm" ".pgm" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Pgm.write ~binary path img;
          let back = Pgm.read path in
          Alcotest.(check bool)
            (if binary then "binary file survives" else "ascii file survives")
            true (Image.equal img back)))
    [ true; false ]

let test_dct_bound_random_blocks () =
  let print l = String.concat "," (List.map string_of_int l) in
  let outcome =
    Runner.run ~cases:200 ~seed:8L ~name:"dct-idct" ~print
      ~gen:(Gen.list_repeat 64 (Gen.int_range (-128) 127))
      (fun l ->
        let block = Array.of_list l in
        let decoded = Dct.inverse_8x8 (Dct.forward_8x8 block) in
        let worst = ref 0 in
        Array.iteri
          (fun i v -> worst := max !worst (abs (v - decoded.(i))))
          block;
        if !worst <= 4 then Ok ()
        else Error (Printf.sprintf "reconstruction error %d > 4" !worst))
  in
  if not (Runner.passed outcome) then
    Alcotest.failf "%s" (Runner.pp_outcome outcome)

let suite =
  [
    Alcotest.test_case "rng derive" `Quick test_rng_derive;
    Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "runner replays cases" `Quick test_runner_replays_cases;
    Alcotest.test_case "runner case inputs replay from case seeds" `Quick
      test_runner_case_inputs;
    Alcotest.test_case "shrink int to boundary" `Quick test_shrink_int_minimal;
    Alcotest.test_case "shrink list to minimum" `Quick
      test_shrink_list_minimal;
    Alcotest.test_case "failure seed replays" `Quick test_failure_seed_replays;
    Alcotest.test_case "netgen well-formed" `Quick test_netgen_well_formed;
    Alcotest.test_case "oracle catalog" `Quick test_oracle_catalog;
    Alcotest.test_case "fixture identity across jobs" `Slow
      test_fixture_jobs_identity;
    Alcotest.test_case "sdf roundtrip on generated netlist" `Slow
      test_sdf_roundtrip_generated;
    Alcotest.test_case "pgm file roundtrip" `Quick test_pgm_file_roundtrip;
    Alcotest.test_case "dct reconstruction bound" `Quick
      test_dct_bound_random_blocks;
  ]
  @ oracle_tests
