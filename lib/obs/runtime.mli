(** Process runtime totals: GC work and memory, read on demand.

    {!totals} reads [Gc.quick_stat] and [/proc/self/status] (VmRSS/VmHWM)
    once.  The bench harnesses difference two reads to charge a scenario
    with its GC work and peak RSS, and {!Run_ledger.capture} copies one
    read into the [runtime.gc.*] / [runtime.mem.*] gauges so every ledger
    record carries the memory and GC state of its run.  The procfs fields
    are [None] on platforms without procfs; reading never raises. *)

type totals = {
  rss_mb : float option;  (** current VmRSS; [None] without procfs *)
  hwm_mb : float option;  (** peak VmHWM (high-water mark) *)
  minor_words : float;  (** cumulative, from [Gc.quick_stat] *)
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_mb : float;
  top_heap_mb : float;
}

val totals : unit -> totals
