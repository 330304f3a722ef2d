type level = Debug | Info | Warn | Quiet

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Quiet -> 3

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "quiet" | "off" | "none" -> Some Quiet
  | _ -> None

let current =
  ref
    (match Sys.getenv_opt "AGING_LOG" with
    | Some s -> Option.value (level_of_string s) ~default:Info
    | None -> Info)

let set_level l = current := l
let level () = !current
let enabled l = severity l >= severity !current

let label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Quiet -> "quiet"

let warnings = Metrics.counter "log.warnings"

(* Process start on the monotonic clock; every line carries its offset so
   stderr can be correlated with trace dumps, which time spans on the same
   clock. *)
let t0_mono = 1e-9 *. Int64.to_float (Monotonic_clock.now ())
let mono_offset () = (1e-9 *. Int64.to_float (Monotonic_clock.now ())) -. t0_mono

let emit lvl sub msg =
  if lvl = Warn then Metrics.incr warnings;
  if enabled lvl then
    Printf.eprintf "[+%.3f][%s][%s] %s\n%!" (mono_offset ()) (label lvl) sub msg

let logf lvl sub fmt = Printf.ksprintf (emit lvl sub) fmt
let debugf sub fmt = logf Debug sub fmt
let infof sub fmt = logf Info sub fmt
let warnf sub fmt = logf Warn sub fmt
