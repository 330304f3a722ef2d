(** Minimal JSON values with a printer and a parser.

    The telemetry exporters ({!Metrics.to_json}, {!Span.span_to_json}, the
    bench harness's [BENCH.json]) need machine-readable output, and the smoke
    tooling needs to read it back — all without adding dependencies.  This
    is deliberately small: standard JSON, integers kept distinct from
    floats so counter values round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** must be finite; {!to_string} rejects nan/inf *)
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : ?pretty:bool -> t -> string
(** Serializes; [pretty] indents with two spaces.  Floats print with 17
    significant digits so [of_string (to_string v) = v].
    @raise Invalid_argument on a non-finite [Float]. *)

val of_string : string -> t
(** Parses one JSON document (rejecting trailing garbage).
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj kvs)] is the value bound to [key]; [None] when absent
    or when the value is not an object. *)

val to_float : t -> float option
(** Numeric coercion: [Int] and [Float] both yield a float, and the
    deterministic non-finite encodings of {!of_float} ([String "NaN"],
    ["Infinity"], ["-Infinity"]) map back to their values. *)

val of_float : float -> t
(** Deterministic float encoding for telemetry artifacts: finite values
    as [Float], non-finite values (which {!to_string} rejects, as they
    are not JSON) as the strings ["NaN"] / ["Infinity"] / ["-Infinity"].
    {!to_float} is the inverse. *)
