(* Domain safety: parallel characterization (Aging_util.Pool) drives these
   handles from several domains at once.  Counters and gauges are single
   atomic words, so the hot-path cost of an [incr] is one fetch-and-add and
   no lock.  Histograms update three fields per observation and take a
   per-histogram mutex; the registry itself (rare: handle creation,
   snapshot, reset) is guarded by one global mutex. *)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  bounds : float array;  (* ascending upper bounds; overflow bucket implicit *)
  counts : int array;    (* length = Array.length bounds + 1 *)
  mutable sum : float;
  mutable n : int;
  lock : Mutex.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

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

(* Half-decade log-scale buckets from 1 ns to ~3000 s: wall times of
   anything from a single NLDM lookup to a full figure reproduction land in
   a meaningful bucket. *)
let default_bounds =
  Array.init 26 (fun i -> 1e-9 *. (10. ** (float_of_int i /. 2.)))

let histogram ?(bounds = default_bounds) name =
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg
          (Printf.sprintf "Aging_obs.Metrics: histogram %s bounds not ascending"
             name))
    bounds;
  register name ~wanted:"histogram"
    ~make:(fun () ->
      let h =
        {
          bounds = Array.copy bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          sum = 0.;
          n = 0;
          lock = Mutex.create ();
        }
      in
      (h, Histogram h))
    ~cast:(function Histogram h -> Some h | _ -> None)

let observe h x =
  let nb = Array.length h.bounds in
  let rec slot i = if i >= nb || x <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  Mutex.protect h.lock (fun () ->
      h.sum <- h.sum +. x;
      h.n <- h.n + 1;
      h.counts.(i) <- h.counts.(i) + 1)

let histogram_count h = Mutex.protect h.lock (fun () -> h.n)
let histogram_sum h = Mutex.protect h.lock (fun () -> h.sum)

let bucket_counts_locked h =
  List.init
    (Array.length h.counts)
    (fun i ->
      let bound =
        if i < Array.length h.bounds then h.bounds.(i) else infinity
      in
      (bound, h.counts.(i)))

let bucket_counts h = Mutex.protect h.lock (fun () -> bucket_counts_locked h)

(* --------------------------- percentiles --------------------------- *)

(* A log-bucket histogram only knows "k observations landed in (lo, hi]";
   within the bucket containing the requested rank we interpolate
   geometrically (linearly in log space), which is exact for values
   log-uniform inside the bucket — the natural assumption for log-spaced
   bounds.  Edge buckets cannot interpolate on both sides: the first
   bucket falls back to linear interpolation from 0, the overflow bucket
   reports its (finite) lower bound.  Non-positive bounds (custom linear
   bucket layouts) also use linear interpolation. *)
let percentile_of_buckets buckets q =
  let q = Float.min 1. (Float.max 0. q) in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then Float.nan
  else begin
    let rank = q *. float_of_int total in
    let rec find cum lo = function
      | [] -> lo
      | (hi, count) :: rest ->
        let cum' = cum + count in
        if count > 0 && rank <= float_of_int cum' then
          if Float.is_finite hi then begin
            let frac = (rank -. float_of_int cum) /. float_of_int count in
            if lo > 0. && hi > 0. then
              exp (log lo +. (frac *. (log hi -. log lo)))
            else lo +. (frac *. (hi -. lo))
          end
          else lo (* overflow bucket: no upper edge to interpolate to *)
        else find cum' (if Float.is_finite hi then hi else lo) rest
    in
    find 0 0. buckets
  end

let approx_percentile h q = percentile_of_buckets (bucket_counts h) q

(* ------------------------- snapshot / export ----------------------- *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

and histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float * int) list;
}

let value_by_name name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Some (float_of_int (Atomic.get c))
      | Some (Gauge g) -> Some (Atomic.get g)
      | Some (Histogram h) ->
        Some (Mutex.protect h.lock (fun () -> float_of_int h.n))
      | None -> None)

let snapshot () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | Counter c -> Counter_value (Atomic.get c)
            | Gauge g -> Gauge_value (Atomic.get g)
            | Histogram h ->
              Mutex.protect h.lock (fun () ->
                  Histogram_value
                    {
                      hs_count = h.n;
                      hs_sum = h.sum;
                      hs_buckets = bucket_counts_locked h;
                    })
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
           | Histogram_value h ->
             [
               ("type", Json.String "histogram");
               ("count", Json.Int h.hs_count);
               ("sum", Json.Float h.hs_sum);
               ( "buckets",
                 Json.List
                   (List.filter_map
                      (fun (bound, count) ->
                        (* empty buckets are noise; the overflow bound is not
                           a finite float, so it serializes as "+Inf" *)
                        if count = 0 then None
                        else
                          Some
                            (Json.Obj
                               [
                                 ( "le",
                                   if Float.is_finite bound then
                                     Json.Float bound
                                   else Json.String "+Inf" );
                                 ("count", Json.Int count);
                               ]))
                      h.hs_buckets) );
             ]
         in
         (name, Json.Obj body))
       (snapshot ()))

(* Inverse of one histogram entry of [to_json]: recover the (bound, count)
   bucket list so percentiles can be computed from an exported snapshot
   (the run ledger stores snapshots, not live handles). *)
let buckets_of_json entry =
  match Json.member "buckets" entry with
  | Some (Json.List items) ->
    List.fold_right
      (fun item acc ->
        match acc with
        | None -> None
        | Some acc ->
          let bound =
            match Json.member "le" item with
            | Some (Json.String "+Inf") -> Some infinity
            | Some v -> Json.to_float v
            | None -> None
          in
          (match (bound, Json.member "count" item) with
          | Some b, Some (Json.Int c) -> Some ((b, c) :: acc)
          | _ -> None))
      items (Some [])
  | _ -> None

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0.
          | Histogram h ->
            Mutex.protect h.lock (fun () ->
                h.sum <- 0.;
                h.n <- 0;
                Array.fill h.counts 0 (Array.length h.counts) 0))
        registry)
