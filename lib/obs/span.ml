type outcome = Completed | Raised of string

type t = {
  name : string;
  attrs : (string * string) list;
  t_start : float;
  duration : float;
  outcome : outcome;
  children : t list;
}

type frame = {
  f_name : string;
  f_attrs : (string * string) list;
  f_t0 : float;   (* wall clock, for the displayed start timestamp *)
  f_m0 : float;   (* monotonic clock, for the duration *)
  mutable f_children : t list; (* newest first *)
}

(* Domain safety: the open-frame stack is domain-local state (a worker's
   spans nest under the worker's own frames, never under another domain's),
   while the completed-roots accumulator and its counters are shared and
   synchronized.  A span completed on a worker domain whose stack is empty
   becomes a top-level root — in a parallel characterization the per-arc
   spans therefore surface as roots of their own rather than children of
   the spawning domain's cell span. *)
let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let roots_lock = Mutex.create ()
let root_acc : t list ref = ref [] (* newest first; guarded by roots_lock *)
let recording_on = Atomic.make false
let recorded = Atomic.make 0
let dropped_count = Atomic.make 0
let max_recorded = 100_000

let now () = Unix.gettimeofday ()

(* CLOCK_MONOTONIC via bechamel's stub: immune to NTP steps, so span
   durations cannot go negative (or silently inflate) when the wall clock
   is adjusted mid-run.  Wall time is kept only for start timestamps. *)
let elapsed () = 1e-9 *. Int64.to_float (Monotonic_clock.now ())

let set_recording b = Atomic.set recording_on b
let recording () = Atomic.get recording_on
let roots () = Mutex.protect roots_lock (fun () -> List.rev !root_acc)
let dropped () = Atomic.get dropped_count

let reset () =
  Domain.DLS.get stack_key := [];
  Mutex.protect roots_lock (fun () -> root_acc := []);
  Atomic.set recorded 0;
  Atomic.set dropped_count 0

let with_ ?(attrs = []) name f =
  let stack = Domain.DLS.get stack_key in
  let t0 = now () in
  let m0 = elapsed () in
  let frame =
    { f_name = name; f_attrs = attrs; f_t0 = t0; f_m0 = m0; f_children = [] }
  in
  stack := frame :: !stack;
  let finish outcome =
    (* Pop back to (and past) our frame even if an exotic caller left
       deeper frames unclosed. *)
    let rec pop = function
      | fr :: rest when fr == frame -> rest
      | _ :: rest -> pop rest
      | [] -> []
    in
    stack := pop !stack;
    let duration = elapsed () -. m0 in
    if Atomic.get recording_on then begin
      let span =
        {
          name;
          attrs;
          t_start = t0;
          duration;
          outcome;
          children = List.rev frame.f_children;
        }
      in
      match !stack with
      | parent :: _ ->
        (* The cap bounds child spans only: top-level spans are the
           artifact (per-scenario wall times) and must survive. *)
        if Atomic.get recorded < max_recorded then begin
          parent.f_children <- span :: parent.f_children;
          ignore (Atomic.fetch_and_add recorded 1)
        end
        else ignore (Atomic.fetch_and_add dropped_count 1)
      | [] ->
        Mutex.protect roots_lock (fun () -> root_acc := span :: !root_acc);
        ignore (Atomic.fetch_and_add recorded 1)
    end
  in
  match f () with
  | v ->
    finish Completed;
    v
  | exception e ->
    finish (Raised (Printexc.to_string e));
    raise e

let rec span_to_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.attrs));
      (* Json.of_float: a pathological non-finite timing still serializes
         (deterministically, as a string) instead of crashing the dump. *)
      ("start", Json.of_float s.t_start);
      ("duration_s", Json.of_float s.duration);
      ( "outcome",
        match s.outcome with
        | Completed -> Json.String "ok"
        | Raised msg -> Json.Obj [ ("raised", Json.String msg) ] );
      ("children", Json.List (List.map span_to_json s.children));
    ]

(* Inverse of [span_to_json], used by the run ledger to rehydrate recorded
   trees.  Tolerant of nothing: a malformed field is an error naming the
   offending key, so a truncated ledger line cannot yield a half-span. *)
let of_json json =
  let ( let* ) = Result.bind in
  let rec go json =
    let field key =
      match Json.member key json with
      | Some v -> Result.Ok v
      | None -> Result.Error (Printf.sprintf "span: missing %S" key)
    in
    let* name =
      match field "name" with
      | Ok (Json.String s) -> Ok s
      | Ok _ -> Error "span: \"name\" is not a string"
      | Error _ as e -> e
    in
    let* attrs =
      match field "attrs" with
      | Ok (Json.Obj kvs) ->
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            match v with
            | Json.String s -> Ok ((k, s) :: acc)
            | _ -> Error "span: attr value is not a string")
          kvs (Ok [])
      | Ok _ -> Error "span: \"attrs\" is not an object"
      | Error _ as e -> e
    in
    let number key =
      let* v = field key in
      match Json.to_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "span: %S is not a number" key)
    in
    let* t_start = number "start" in
    let* duration = number "duration_s" in
    let* outcome =
      match field "outcome" with
      | Ok (Json.String "ok") -> Ok Completed
      | Ok (Json.Obj [ ("raised", Json.String msg) ]) -> Ok (Raised msg)
      | Ok _ -> Error "span: unrecognized \"outcome\""
      | Error _ as e -> e
    in
    let* children =
      match field "children" with
      | Ok (Json.List items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* child = go item in
            Ok (child :: acc))
          items (Ok [])
      | Ok _ -> Error "span: \"children\" is not a list"
      | Error _ as e -> e
    in
    Ok { name; attrs; t_start; duration; outcome; children }
  in
  go json
