(* Domain safety: parallel characterization (Aging_util.Pool) drives these
   handles from several domains at once.  Counters and gauges are single
   atomic words, so the hot-path cost of an [incr] is one fetch-and-add and
   no lock; the registry itself (rare: handle creation, snapshot, reset)
   is guarded by one global mutex. *)

type counter = int Atomic.t
type gauge = float Atomic.t

type metric =
  | Counter of counter
  | Gauge of gauge

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Aging_obs.Metrics: %s is already a %s, not a %s" name
       (kind_name existing) wanted)

(* Get-or-create under the registry lock; [make] must not lock. *)
let register name ~wanted ~make ~cast =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> begin
        match cast m with Some v -> v | None -> mismatch name m wanted
      end
      | None ->
        let v, m = make () in
        Hashtbl.replace registry name m;
        v)

let counter name =
  register name ~wanted:"counter"
    ~make:(fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    ~cast:(function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let value c = Atomic.get c

let gauge name =
  register name ~wanted:"gauge"
    ~make:(fun () ->
      let g = Atomic.make 0. in
      (g, Gauge g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

(* ------------------------- snapshot / export ----------------------- *)

type value = Counter_value of int | Gauge_value of float

let value_by_name name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Some (float_of_int (Atomic.get c))
      | Some (Gauge g) -> Some (Atomic.get g)
      | None -> None)

let snapshot () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | Counter c -> Counter_value (Atomic.get c)
            | Gauge g -> Gauge_value (Atomic.get g)
          in
          (name, v) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json () =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let body =
           match v with
           | Counter_value n ->
             [ ("type", Json.String "counter"); ("value", Json.Int n) ]
           | Gauge_value g ->
             [ ("type", Json.String "gauge"); ("value", Json.Float g) ]
         in
         (name, Json.Obj body))
       (snapshot ()))

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0.)
        registry)
