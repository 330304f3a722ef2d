let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

(* "VmRSS:     123456 kB" -> 123456. *)
let status_kb body key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let rest =
          String.trim
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
        in
        let num =
          match String.index_opt rest ' ' with
          | Some i -> String.sub rest 0 i
          | None -> rest
        in
        float_of_string_opt num
      else None)
    (String.split_on_char '\n' body)

type totals = {
  rss_mb : float option;
  hwm_mb : float option;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_mb : float;
  top_heap_mb : float;
}

let totals () =
  let st = Gc.quick_stat () in
  let status =
    try Some (In_channel.with_open_text "/proc/self/status" In_channel.input_all)
    with _ -> None
  in
  let mb key =
    Option.bind status (fun body -> status_kb body key)
    |> Option.map (fun kb -> kb /. 1024.)
  in
  {
    rss_mb = mb "VmRSS";
    hwm_mb = mb "VmHWM";
    minor_words = st.Gc.minor_words;
    promoted_words = st.Gc.promoted_words;
    major_words = st.Gc.major_words;
    minor_collections = st.Gc.minor_collections;
    major_collections = st.Gc.major_collections;
    compactions = st.Gc.compactions;
    heap_mb = float_of_int st.Gc.heap_words *. word_mb;
    top_heap_mb = float_of_int st.Gc.top_heap_words *. word_mb;
  }
