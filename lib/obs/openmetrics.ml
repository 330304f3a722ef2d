let is_legal_head c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_legal c = is_legal_head c || (c >= '0' && c <= '9')

let sanitize_name name =
  if name = "" then "_"
  else begin
    let b = Buffer.create (String.length name + 1) in
    if not (is_legal_head name.[0]) then Buffer.add_char b '_';
    String.iter (fun c -> Buffer.add_char b (if is_legal c then c else '_')) name;
    Buffer.contents b
  end

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* HELP text: escape backslash and newline (quotes are legal there). *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_str v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let le_str bound = if Float.is_finite bound then float_str bound else "+Inf"

let render_snapshot values =
  let b = Buffer.create 4096 in
  let header name kind orig =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (escape_help orig));
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (orig, value) ->
      let name = sanitize_name orig in
      match value with
      | Metrics.Counter_value n ->
          header name "counter" orig;
          Buffer.add_string b (Printf.sprintf "%s_total %d\n" name n)
      | Metrics.Gauge_value g ->
          header name "gauge" orig;
          Buffer.add_string b (Printf.sprintf "%s %s\n" name (float_str g))
      | Metrics.Histogram_value h ->
          header name "histogram" orig;
          let cum = ref 0 in
          List.iter
            (fun (bound, count) ->
              cum := !cum + count;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (le_str bound)
                   !cum))
            h.Metrics.hs_buckets;
          (* A snapshot from stored JSON may elide the +Inf bucket when it
             was empty; the exposition format requires it. *)
          (match List.rev h.Metrics.hs_buckets with
          | (bound, _) :: _ when not (Float.is_finite bound) -> ()
          | _ ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name
                   h.Metrics.hs_count));
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" name (float_str h.Metrics.hs_sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" name h.Metrics.hs_count))
    values;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---- stored-snapshot recovery (ledger records) ---- *)

let values_of_stored_json j =
  match j with
  | Json.Obj entries ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, entry) :: rest -> (
            let fail what =
              Error (Printf.sprintf "metric %s: %s" name what)
            in
            match Json.member "type" entry with
            | Some (Json.String "counter") -> (
                match Json.member "value" entry with
                | Some (Json.Int n) ->
                    go ((name, Metrics.Counter_value n) :: acc) rest
                | _ -> fail "counter without integer value")
            | Some (Json.String "gauge") -> (
                match Option.bind (Json.member "value" entry) Json.to_float with
                | Some g -> go ((name, Metrics.Gauge_value g) :: acc) rest
                | None -> fail "gauge without numeric value")
            | Some (Json.String "histogram") -> (
                match
                  ( Json.member "count" entry,
                    Option.bind (Json.member "sum" entry) Json.to_float,
                    Metrics.buckets_of_json entry )
                with
                | Some (Json.Int hs_count), Some hs_sum, Some hs_buckets ->
                    go
                      (( name,
                         Metrics.Histogram_value { hs_count; hs_sum; hs_buckets }
                       )
                      :: acc)
                      rest
                | _ -> fail "malformed histogram entry")
            | _ -> fail "missing or unknown type tag")
      in
      go [] entries
  | _ -> Error "metrics snapshot: expected an object"

let render_stored j = Result.map render_snapshot (values_of_stored_json j)

(* ---- parser ---- *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

exception Bad of string

let parse_labels line start =
  (* [line.[start] = '{'].  Returns (labels, index past '}'). *)
  let n = String.length line in
  let labels = ref [] in
  let i = ref (start + 1) in
  let rec skip_ws () = if !i < n && line.[!i] = ' ' then (incr i; skip_ws ()) in
  let parse_one () =
    skip_ws ();
    let name_start = !i in
    while !i < n && line.[!i] <> '=' do incr i done;
    if !i >= n then raise (Bad "label without '='");
    let lname = String.trim (String.sub line name_start (!i - name_start)) in
    incr i;
    if !i >= n || line.[!i] <> '"' then raise (Bad "label value not quoted");
    incr i;
    let b = Buffer.create 16 in
    let rec value () =
      if !i >= n then raise (Bad "unterminated label value")
      else
        match line.[!i] with
        | '"' -> incr i
        | '\\' ->
            if !i + 1 >= n then raise (Bad "trailing backslash");
            (match line.[!i + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | c -> Buffer.add_char b c);
            i := !i + 2;
            value ()
        | c ->
            Buffer.add_char b c;
            incr i;
            value ()
    in
    value ();
    labels := (lname, Buffer.contents b) :: !labels
  in
  let rec all () =
    skip_ws ();
    if !i >= n then raise (Bad "unterminated label set")
    else if line.[!i] = '}' then incr i
    else begin
      parse_one ();
      skip_ws ();
      if !i < n && line.[!i] = ',' then incr i;
      all ()
    end
  in
  all ();
  (List.rev !labels, !i)

let parse_sample_line line =
  let n = String.length line in
  let i = ref 0 in
  if n = 0 || not (is_legal_head line.[0]) then
    raise (Bad "sample line without a legal metric name");
  while !i < n && is_legal line.[!i] do incr i done;
  let s_name = String.sub line 0 !i in
  let s_labels, rest_at =
    if !i < n && line.[!i] = '{' then parse_labels line !i else ([], !i)
  in
  let rest = String.trim (String.sub line rest_at (n - rest_at)) in
  let value_str =
    match String.index_opt rest ' ' with
    | Some j -> String.sub rest 0 j (* ignore a trailing timestamp *)
    | None -> rest
  in
  match float_of_string_opt value_str with
  | Some s_value -> { s_name; s_labels; s_value }
  | None -> raise (Bad (Printf.sprintf "bad sample value %S" value_str))

let parse text =
  let lines = String.split_on_char '\n' text in
  let non_blank = List.filter (fun l -> String.trim l <> "") lines in
  match List.rev non_blank with
  | [] -> Error "empty exposition"
  | last :: _ when String.trim last <> "# EOF" ->
      Error "exposition does not end with # EOF"
  | _ -> (
      try
        Ok
          (List.filter_map
             (fun line ->
               let line = String.trim line in
               if line = "" || line.[0] = '#' then None
               else
                 match parse_sample_line line with
                 | s -> Some s
                 | exception Bad msg ->
                     raise (Bad (Printf.sprintf "%s: %s" msg line)))
             lines)
      with Bad msg -> Error msg)

let find samples ?(labels = []) name =
  List.find_map
    (fun s ->
      if
        s.s_name = name
        && List.for_all
             (fun (k, v) -> List.assoc_opt k s.s_labels = Some v)
             labels
      then Some s.s_value
      else None)
    samples
