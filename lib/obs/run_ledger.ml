(* Persistent run records: one JSON object per line, appended to
   runs/ledger.jsonl.  Concurrency model: the whole record is serialized
   into one buffer and written with a single write(2) on an O_APPEND
   descriptor, so concurrent writers interleave at record granularity and
   a reader never sees a torn line (short of a crash mid-write, which the
   loader tolerates by skipping the unparseable tail). *)

let schema_version = 1

type outcome = Finished | Failed of string

type record = {
  version : int;
  id : string;
  tool : string;
  subcommand : string;
  argv : string list;
  git_rev : string option;
  started_at : float;
  wall_s : float;
  outcome : outcome;
  qor : (string * float) list;
  notes : (string * Json.t) list;
  metrics : Json.t;
  spans : Span.t list;
  dropped_spans : int;
}

(* ----------------------- non-finite floats ------------------------ *)

(* The Json printer rejects non-finite floats (they are not JSON).  A run
   record must still be appendable when a duration or QoR value went
   non-finite — that is exactly the run one wants recorded — so the ledger
   uses [Json.of_float]'s deterministic string encoding and maps the
   strings back on load. *)
let json_of_float = Json.of_float
let float_of_json = Json.to_float

(* --------------------------- QoR notes ---------------------------- *)

(* Process-global accumulators, mirroring the Metrics registry idiom: a
   subcommand deep in the flow notes "qor.guardband_ps = 42.1" and the
   telemetry finalizer drains everything noted since the last capture into
   the record.  Guarded by one mutex; noted from the main domain in
   practice, but safe from workers. *)
let note_lock = Mutex.create ()
let noted_qor : (string * float) list ref = ref []
let noted : (string * Json.t) list ref = ref []

let note_qor name v =
  Mutex.protect note_lock (fun () ->
      noted_qor := (name, v) :: List.remove_assoc name !noted_qor)

let note name v =
  Mutex.protect note_lock (fun () ->
      noted := (name, v) :: List.remove_assoc name !noted)

let drain_notes () =
  Mutex.protect note_lock (fun () ->
      let q = List.rev !noted_qor and n = List.rev !noted in
      noted_qor := [];
      noted := [];
      (q, n))

(* ---------------------------- git rev ----------------------------- *)

(* Best-effort HEAD discovery without shelling out: walk up from the cwd
   to the first .git/HEAD, follow one level of "ref:" indirection through
   the loose ref or packed-refs.  Any failure is None — a ledger must
   append fine outside a repository. *)
let read_file_opt path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception End_of_file -> None)
  | exception Sys_error _ -> None

let git_rev_opt () =
  let rec find_git dir depth =
    if depth > 16 then None
    else
      let head = Filename.concat dir ".git/HEAD" in
      if Sys.file_exists head then Some dir
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find_git parent (depth + 1)
  in
  match find_git (Sys.getcwd ()) 0 with
  | None -> None
  | Some root -> (
    match read_file_opt (Filename.concat root ".git/HEAD") with
    | None -> None
    | Some head -> (
      let head = String.trim head in
      match
        if String.length head > 5 && String.sub head 0 5 = "ref: " then
          let refname = String.sub head 5 (String.length head - 5) in
          match
            read_file_opt (Filename.concat root (".git/" ^ refname))
          with
          | Some hash -> Some (String.trim hash)
          | None -> (
            (* loose ref absent: look the ref up in packed-refs *)
            match read_file_opt (Filename.concat root ".git/packed-refs") with
            | None -> None
            | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.index_opt line ' ' with
                     | Some i
                       when String.sub line (i + 1)
                              (String.length line - i - 1)
                            = refname ->
                       Some (String.sub line 0 i)
                     | _ -> None))
        else Some head
      with
      | Some hash
        when String.length hash >= 7
             && String.for_all
                  (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                  hash ->
        Some hash
      | _ -> None))

(* ---------------------------- capture ----------------------------- *)

let capture_seq = Atomic.make 0

(* One runtime read into the runtime.* gauges, so every record's metrics
   snapshot carries the GC totals and memory of its run. *)
let set_runtime_gauges () =
  let t = Runtime.totals () in
  let set name v = Metrics.set (Metrics.gauge name) v in
  set "runtime.gc.minor_words" t.Runtime.minor_words;
  set "runtime.gc.promoted_words" t.Runtime.promoted_words;
  set "runtime.gc.major_words" t.Runtime.major_words;
  set "runtime.gc.minor_collections" (float_of_int t.Runtime.minor_collections);
  set "runtime.gc.major_collections" (float_of_int t.Runtime.major_collections);
  set "runtime.gc.compactions" (float_of_int t.Runtime.compactions);
  set "runtime.gc.heap_mb" t.Runtime.heap_mb;
  set "runtime.gc.top_heap_mb" t.Runtime.top_heap_mb;
  Option.iter (set "runtime.mem.rss_mb") t.Runtime.rss_mb;
  Option.iter (set "runtime.mem.hwm_mb") t.Runtime.hwm_mb

let capture ~tool ~subcommand ?(argv = Array.to_list Sys.argv)
    ?(outcome = Finished) ?spans ~started_at ~wall_s () =
  set_runtime_gauges ();
  let qor, notes = drain_notes () in
  let spans = match spans with Some s -> s | None -> Span.roots () in
  let id =
    String.sub
      (Digest.to_hex
         (Digest.string
            (Printf.sprintf "%.9f:%d:%d:%s" started_at (Unix.getpid ())
               (Atomic.fetch_and_add capture_seq 1)
               (String.concat "\x00" argv))))
      0 12
  in
  {
    version = schema_version;
    id;
    tool;
    subcommand;
    argv;
    git_rev = git_rev_opt ();
    started_at;
    wall_s;
    outcome;
    qor;
    notes;
    metrics = Metrics.to_json ();
    spans;
    dropped_spans = Span.dropped ();
  }

(* -------------------------- (de)serialize -------------------------- *)

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int r.version);
      ("id", Json.String r.id);
      ("tool", Json.String r.tool);
      ("subcommand", Json.String r.subcommand);
      ("argv", Json.List (List.map (fun a -> Json.String a) r.argv));
      ( "git_rev",
        match r.git_rev with Some h -> Json.String h | None -> Json.Null );
      ("started_at", json_of_float r.started_at);
      ("wall_s", json_of_float r.wall_s);
      ( "outcome",
        match r.outcome with
        | Finished -> Json.String "ok"
        | Failed msg -> Json.Obj [ ("failed", Json.String msg) ] );
      ("qor", Json.Obj (List.map (fun (k, v) -> (k, json_of_float v)) r.qor));
      ("notes", Json.Obj r.notes);
      ("metrics", r.metrics);
      ("spans", Json.List (List.map Span.span_to_json r.spans));
      ("dropped_spans", Json.Int r.dropped_spans);
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let field key =
    match Json.member key json with
    | Some v -> Result.Ok v
    | None -> Result.Error (Printf.sprintf "record: missing %S" key)
  in
  let string_field key =
    let* v = field key in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "record: %S is not a string" key)
  in
  let float_field key =
    let* v = field key in
    match float_of_json v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "record: %S is not a number" key)
  in
  let* version =
    match field "schema_version" with
    | Ok (Json.Int v) -> Ok v
    | Ok _ -> Error "record: \"schema_version\" is not an integer"
    | Error _ as e -> e
  in
  if version > schema_version then
    Error
      (Printf.sprintf "record: schema version %d is newer than supported %d"
         version schema_version)
  else
    let* id = string_field "id" in
    let* tool = string_field "tool" in
    let* subcommand = string_field "subcommand" in
    let* argv =
      match field "argv" with
      | Ok (Json.List items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error "record: argv element is not a string")
          items (Ok [])
      | Ok _ -> Error "record: \"argv\" is not a list"
      | Error _ as e -> e
    in
    let git_rev =
      match Json.member "git_rev" json with
      | Some (Json.String h) -> Some h
      | _ -> None
    in
    let* started_at = float_field "started_at" in
    let* wall_s = float_field "wall_s" in
    let* outcome =
      match field "outcome" with
      | Ok (Json.String "ok") -> Ok Finished
      | Ok (Json.Obj [ ("failed", Json.String msg) ]) -> Ok (Failed msg)
      | Ok _ -> Error "record: unrecognized \"outcome\""
      | Error _ as e -> e
    in
    let* qor =
      match field "qor" with
      | Ok (Json.Obj kvs) ->
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            match float_of_json v with
            | Some f -> Ok ((k, f) :: acc)
            | None -> Error (Printf.sprintf "record: qor %S is not a number" k))
          kvs (Ok [])
      | Ok _ -> Error "record: \"qor\" is not an object"
      | Error _ as e -> e
    in
    let notes =
      match Json.member "notes" json with Some (Json.Obj kvs) -> kvs | _ -> []
    in
    let* metrics = field "metrics" in
    let* spans =
      match field "spans" with
      | Ok (Json.List items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* span = Span.of_json item in
            Ok (span :: acc))
          items (Ok [])
      | Ok _ -> Error "record: \"spans\" is not a list"
      | Error _ as e -> e
    in
    let dropped_spans =
      match Json.member "dropped_spans" json with
      | Some (Json.Int n) -> n
      | _ -> 0
    in
    Ok
      {
        version;
        id;
        tool;
        subcommand;
        argv;
        git_rev;
        started_at;
        wall_s;
        outcome;
        qor;
        notes;
        metrics;
        spans;
        dropped_spans;
      }

(* ----------------------------- append ----------------------------- *)

let ledger_file = "ledger.jsonl"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let path ~dir = Filename.concat dir ledger_file

let append ~dir record =
  mkdir_p dir;
  let line = Json.to_string (to_json record) ^ "\n" in
  let fd =
    Unix.openfile (path ~dir)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* One write per record: O_APPEND makes concurrent appends land as
         whole lines (the buffer is far below PIPE_BUF-scale sizes where
         the kernel would split a write only on ENOSPC/signals, which the
         loop below resumes). *)
      let n = String.length line in
      let written = ref 0 in
      while !written < n do
        written :=
          !written + Unix.write_substring fd line !written (n - !written)
      done);
  path ~dir

(* ------------------------------ load ------------------------------ *)

let load ~dir =
  let file = path ~dir in
  match read_file_opt file with
  | None -> Error (Printf.sprintf "%s: no such ledger" file)
  | Some text ->
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    let total = List.length lines in
    let records =
      List.mapi (fun i line -> (i, line)) lines
      |> List.filter_map (fun (i, line) ->
             match Json.of_string line with
             | json -> (
               match of_json json with
               | Ok r -> Some r
               | Error msg ->
                 Log.warnf "ledger" "%s line %d skipped: %s" file (i + 1) msg;
                 None)
             | exception Json.Parse_error msg ->
               (* The unparseable tail of the file is expected under a
                  concurrent writer; anything else is corruption worth a
                  warning either way. *)
               Log.warnf "ledger" "%s line %d unparseable (%s)%s" file (i + 1)
                 msg
                 (if i = total - 1 then " — in-flight append?" else "");
               None)
    in
    Ok records

let select records sel =
  let n = List.length records in
  let by_prefix ~fallback =
    let prefix_of r =
      String.length r.id >= String.length sel
      && String.sub r.id 0 (String.length sel) = sel
    in
    match List.filter prefix_of records with
    | [ r ] -> Ok r
    | [] -> Error (fallback ())
    | _ :: _ -> Error (Printf.sprintf "run id prefix %S is ambiguous" sel)
  in
  match int_of_string_opt sel with
  | Some i ->
    let idx = if i < 0 then n + i else i in
    if idx >= 0 && idx < n then Ok (List.nth records idx)
    else
      (* Ids are random hex, so an all-digit selector ("914236") can also
         be an id prefix; an index that cannot resolve falls back to
         prefix matching rather than refusing outright. *)
      by_prefix ~fallback:(fun () ->
          Printf.sprintf "run %s out of range (ledger has %d record%s)" sel n
            (if n = 1 then "" else "s"))
  | None ->
    by_prefix ~fallback:(fun () ->
        Printf.sprintf "no run with id prefix %S" sel)
