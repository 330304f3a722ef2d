let finite values =
  Array.of_list
    (List.filter Float.is_finite (Array.to_list values))

let median values =
  let vs = finite values in
  let n = Array.length vs in
  if n = 0 then Float.nan
  else begin
    Array.sort compare vs;
    if n mod 2 = 1 then vs.(n / 2)
    else 0.5 *. (vs.((n / 2) - 1) +. vs.(n / 2))
  end

let mad values =
  let med = median values in
  if Float.is_nan med then Float.nan
  else median (Array.map (fun v -> Float.abs (v -. med)) (finite values))

type verdict = { z : float; drifting : bool }

(* 1.4826 scales the MAD to estimate sigma for normal data. *)
let mad_to_sigma = 1.4826

let drift ?(one_sided = false) ~z_thresh ~window x =
  let med = median window in
  let z =
    if Float.is_nan med || Float.is_nan x then 0.
    else begin
      let dev = x -. med in
      if one_sided && dev <= 0. then 0.
      else begin
        let scale = mad_to_sigma *. mad window in
        let flat_tol = 1e-6 *. Float.max 1.0 (Float.abs med) in
        if scale > flat_tol then Float.abs dev /. scale
        else if Float.abs dev <= flat_tol then 0.
        else Float.infinity
      end
    end
  in
  { z; drifting = z > z_thresh }

let spark_levels = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                      "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let sparkline values =
  let fin = finite values in
  if Array.length fin = 0 then
    String.concat "" (List.map (fun _ -> " ") (Array.to_list values))
  else begin
    let lo = Array.fold_left Float.min fin.(0) fin in
    let hi = Array.fold_left Float.max fin.(0) fin in
    let level v =
      if Float.is_nan v then " "
      else if hi <= lo then spark_levels.(3)
      else begin
        let t = (v -. lo) /. (hi -. lo) in
        let i = int_of_float (t *. 7.99) in
        spark_levels.(max 0 (min 7 i))
      end
    in
    String.concat "" (List.map level (Array.to_list values))
  end

type row = { r_name : string; r_values : float array; r_one_sided : bool }

let health_counters =
  [
    "characterize.points.retried";
    "characterize.points.repaired";
    "characterize.points.failed";
    "cache.corrupt";
    "log.warnings";
  ]

(* A counter's value inside a record's stored metrics snapshot. *)
let stored_counter record name =
  match Json.member name record.Run_ledger.metrics with
  | Some entry -> (
      match (Json.member "type" entry, Json.member "value" entry) with
      | Some (Json.String "counter"), Some (Json.Int n) -> Some (float_of_int n)
      | _ -> None)
  | None -> None

let rows_of_records records =
  let qor_names =
    List.concat_map (fun r -> List.map fst r.Run_ledger.qor) records
    |> List.sort_uniq compare
  in
  let series extract =
    Array.of_list (List.filter_map extract records)
  in
  let qor_rows =
    List.map
      (fun name ->
        {
          r_name = name;
          r_values = series (fun r -> List.assoc_opt name r.Run_ledger.qor);
          r_one_sided = false;
        })
      qor_names
  in
  let health_rows =
    List.filter_map
      (fun name ->
        let values = series (fun r -> stored_counter r name) in
        if Array.length values = 0 then None
        else Some { r_name = name; r_values = values; r_one_sided = true })
      health_counters
  in
  List.sort
    (fun a b -> compare a.r_name b.r_name)
    (qor_rows @ health_rows)

type status = Pass | Drift | Short

type gated = {
  g_row : row;
  g_median : float;
  g_last : float;
  g_z : float;
  g_status : status;
}

let gate ?(z_thresh = 4.0) ?(min_window = 4) row =
  let n = Array.length row.r_values in
  let window = Array.sub row.r_values 0 (max 0 (n - 1)) in
  let last = if n = 0 then Float.nan else row.r_values.(n - 1) in
  let med = median window in
  if n - 1 < min_window then
    { g_row = row; g_median = med; g_last = last; g_z = 0.; g_status = Short }
  else begin
    let v = drift ~one_sided:row.r_one_sided ~z_thresh ~window last in
    {
      g_row = row;
      g_median = med;
      g_last = last;
      g_z = v.z;
      g_status = (if v.drifting then Drift else Pass);
    }
  end
