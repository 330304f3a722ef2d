let default_jobs () =
  match Sys.getenv_opt "AGING_JOBS" with
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ()
  end
  | None -> Domain.recommended_domain_count ()

(* Set while a domain is executing pool work; a nested [map] sees it and
   degrades to List.map, so stacked parallel layers cannot multiply the
   domain count. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs <= 1 || Domain.DLS.get inside_pool -> List.map f xs
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let jobs = min jobs n in
    let results = Array.make n None in
    (* Lowest failing input index wins, so the caller sees the same
       exception a sequential run would raise first. *)
    let failure = Atomic.make None in
    let record_failure i e bt =
      let rec cas () =
        let cur = Atomic.get failure in
        match cur with
        | Some (j, _, _) when j <= i -> ()
        | _ -> if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then cas ()
      in
      cas ()
    in
    (* Dynamic claiming: every domain, the caller included, takes the next
       unclaimed index until the input is used up, so one expensive item
       never strands a pre-assigned run of others behind it. *)
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f input.(i) with
        | v -> results.(i) <- Some v
        | exception e -> record_failure i e (Printexc.get_raw_backtrace ()));
        drain ()
      end
    in
    let worker () =
      Domain.DLS.set inside_pool true;
      drain ()
    in
    (* Drain discipline: whatever goes wrong mid-map — a [Domain.spawn]
       failing after some workers are already running (resource
       exhaustion), the caller's own drain raising, or a join itself
       raising — every domain that was actually spawned is joined before
       control leaves this function, and the calling domain's nesting flag
       is reset.  Leaking an unjoined domain would poison every later [map]
       (and eventually the runtime); leaving [inside_pool] set would
       silently sequentialize them. *)
    let spawned = ref [] in
    let join_all () =
      (* Join every spawned domain even if an early join raises; the first
         join exception (a worker dying outside [drain]'s per-element
         handler, e.g. an asynchronous exception) is re-raised only after
         all of them are accounted for. *)
      let first = ref None in
      List.iter
        (fun d ->
          match Domain.join d with
          | () -> ()
          | exception e ->
            if !first = None then
              first := Some (e, Printexc.get_raw_backtrace ()))
        (List.rev !spawned);
      spawned := [];
      match !first with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set inside_pool false;
        join_all ())
      (fun () ->
        for _ = 1 to jobs - 1 do
          spawned := Domain.spawn worker :: !spawned
        done;
        Domain.DLS.set inside_pool true;
        drain ());
    (match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
