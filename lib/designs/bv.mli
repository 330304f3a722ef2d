(** Bit-vector RTL builder on top of the gate-level netlist builder.

    Vectors are little-endian arrays of nets ([v.(0)] is the LSB).  Word
    operators instantiate catalog cells directly (FA chains for adders,
    MUX2 trees for selection, AND arrays for multipliers), producing the
    structural netlists the synthesis flow then re-optimizes — the stand-in
    for the paper's RTL designs. *)

type ctx
type t = Aging_netlist.Netlist.net array

val ctx : Aging_netlist.Netlist.Builder.b -> ctx
val builder : ctx -> Aging_netlist.Netlist.Builder.b

val zero_net : ctx -> Aging_netlist.Netlist.net
(** The constant-0 net (a shared TIELO instance). *)

val one_net : ctx -> Aging_netlist.Netlist.net

val input : ctx -> string -> int -> t
(** [input c name w] declares ports [name\[0\] .. name\[w-1\]]. *)

val output : ctx -> string -> t -> unit

val reg : ctx -> t -> t
(** One DFF per bit; returns the Q vector. *)

val feedback : ctx -> int -> t
(** Pre-allocates a Q vector for a feedback register; drive it later with
    {!reg_into}. *)

val reg_into : ctx -> d:t -> q:t -> unit
(** Creates the flip-flops of a feedback register: captures [d] into the
    previously allocated [q] nets.  @raise Invalid_argument on width
    mismatch. *)

val inv_net : ctx -> Aging_netlist.Netlist.net -> Aging_netlist.Netlist.net
val and2_net : ctx -> Aging_netlist.Netlist.net -> Aging_netlist.Netlist.net -> Aging_netlist.Netlist.net

val const : ctx -> int -> int -> t
(** [const c value w]: two's-complement constant of width [w]. *)

val width : t -> int
val bit : t -> int -> Aging_netlist.Netlist.net
val slice : t -> lo:int -> hi:int -> t
val concat : t -> t -> t
(** [concat lo hi] appends [hi] above [lo]. *)

val not_ : ctx -> t -> t
val and_ : ctx -> t -> t -> t
val or_ : ctx -> t -> t -> t
val xor_ : ctx -> t -> t -> t
(** Bitwise; widths must match. *)

val and_net : ctx -> t -> Aging_netlist.Netlist.net -> t
(** Mask every bit with a single net. *)

val mux : ctx -> sel:Aging_netlist.Netlist.net -> t -> t -> t
(** [mux ~sel a b] is [a] when [sel] = 0, [b] when 1. *)

val mux_tree : ctx -> sel:t -> t list -> t
(** Select among [2^|sel|] equally wide vectors.
    @raise Invalid_argument if the list is shorter than [2^|sel|]. *)

val add : ?cin:Aging_netlist.Netlist.net -> ctx -> t -> t -> t
(** Ripple adder, result has the common width (carry-out dropped). *)

val add_fast : ?cin:Aging_netlist.Netlist.net -> ctx -> t -> t -> t
(** Sklansky parallel-prefix adder (log-depth carries); same contract as
    {!add}.  This is what a performance-driven synthesis of wide adders
    produces. *)

val sub_fast : ctx -> t -> t -> t

val sub : ctx -> t -> t -> t
val neg : ctx -> t -> t

val sext : ctx -> t -> int -> t
(** Sign-extend (or truncate) to the given width. *)

val zext : ctx -> t -> int -> t

val shl_const : ctx -> t -> int -> t
(** Shift left by a constant, zero-filled, same width. *)

val asr_const : ctx -> t -> int -> t
(** Arithmetic shift right by a constant, same width. *)

val mul_const : ctx -> t -> int -> t
(** Shift-add multiplication by a (possibly negative) integer constant,
    same width (two's-complement wrap). *)

val add_const : ctx -> t -> int -> t

val mul : ctx -> t -> t -> t
(** Array multiplier; result width = sum of operand widths (unsigned). *)

val eq_const : ctx -> t -> int -> Aging_netlist.Netlist.net
(** Single-net comparison against a constant. *)

val reduce_or : ctx -> t -> Aging_netlist.Netlist.net
