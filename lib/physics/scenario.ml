type corner = { lambda_p : float; lambda_n : float }

let check_lambda name x =
  if x < 0. || x > 1. then
    invalid_arg (Printf.sprintf "Scenario.corner: %s outside [0,1]" name)

let corner ~lambda_p ~lambda_n =
  check_lambda "lambda_p" lambda_p;
  check_lambda "lambda_n" lambda_n;
  { lambda_p; lambda_n }

let fresh = { lambda_p = 0.; lambda_n = 0. }
let worst_case = { lambda_p = 1.; lambda_n = 1. }
let balanced = { lambda_p = 0.5; lambda_n = 0.5 }

let grid ?(step = 0.1) () =
  let n = int_of_float (Float.round (1. /. step)) in
  if Float.abs ((float_of_int n *. step) -. 1.) > 1e-9 then
    invalid_arg "Scenario.grid: step does not divide 1";
  List.concat_map
    (fun i ->
      let lp = float_of_int i *. step in
      List.map
        (fun j -> { lambda_p = lp; lambda_n = float_of_int j *. step })
        (List.init (n + 1) Fun.id))
    (List.init (n + 1) Fun.id)

let snap ?(step = 0.1) c =
  let snap1 x =
    let v = Float.round (x /. step) *. step in
    Float.max 0. (Float.min 1. v)
  in
  { lambda_p = snap1 c.lambda_p; lambda_n = snap1 c.lambda_n }

let suffix c = Printf.sprintf "%.1f_%.1f" c.lambda_p c.lambda_n

let of_suffix s =
  match String.split_on_char '_' s with
  | [ p; n ] -> begin
    match (float_of_string_opt p, float_of_string_opt n) with
    | Some lp, Some ln
      when lp >= 0. && lp <= 1. && ln >= 0. && ln <= 1. ->
      Some { lambda_p = lp; lambda_n = ln }
    | Some _, Some _ | None, _ | Some _, None -> None
  end
  | _ -> None

let indexed_name base c = base ^ "@" ^ suffix c

let split_indexed name =
  match String.index_opt name '@' with
  | None -> (name, None)
  | Some i ->
    ( String.sub name 0 i,
      of_suffix (String.sub name (i + 1) (String.length name - i - 1)) )

let equal a b =
  Float.abs (a.lambda_p -. b.lambda_p) < 1e-9
  && Float.abs (a.lambda_n -. b.lambda_n) < 1e-9

type t = {
  corner : corner;
  years : float;
  temp_k : float;
  mode : Degradation.mode;
  defect_scale : float;
}

let scenario ?(years = 10.) ?(temp_k = Device.temperature)
    ?(mode = Degradation.Full) ?(defect_scale = 1.0) corner =
  { corner; years; temp_k; mode; defect_scale }

let stress_of t ~lambda =
  Bti.stress ~years:t.years ~temp_k:t.temp_k ~duty:lambda ()

let age_device t (device : Device.params) =
  let lambda =
    match device.Device.polarity with
    | Device.Pmos -> t.corner.lambda_p
    | Device.Nmos -> t.corner.lambda_n
  in
  Degradation.apply ~mode:t.mode ~defect_scale:t.defect_scale device
    (stress_of t ~lambda)
