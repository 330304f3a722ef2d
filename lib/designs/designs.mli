(** The benchmark designs of the evaluation (Sec. 5).

    Structural stand-ins for the paper's industrial-strength RTL: two image
    processing datapaths (DCT, IDCT), a MAC-based DSP, an FFT radix-2
    butterfly stage, two RISC pipelines (5 and 6 stages) and a 2-issue VLIW
    datapath.  Each generator returns a flat gate-level netlist built from
    catalog cells; the synthesis flow then re-optimizes it against a chosen
    library. *)

val transform_io_width : int
(** Bit width of the DCT/IDCT sample ports (13: wide enough for
    second-pass coefficients). *)

val dct : unit -> Aging_netlist.Netlist.t
(** Registered 8-point 1-D forward DCT: ports [I0..I7\[12:0\]] ->
    [O0..O7\[12:0\]], two cycles of latency (input and output registers).
    Bit-identical to {!Aging_image.Dct.forward_1d}. *)

val idct : unit -> Aging_netlist.Netlist.t
(** Registered 8-point 1-D inverse DCT (same interface). *)

val dsp : unit -> Aging_netlist.Netlist.t
(** Multiply-accumulate engine: 8x8 array multiplier with a 20-bit
    accumulator ([clr] input resets the accumulation chain input). *)

val fft : unit -> Aging_netlist.Netlist.t
(** Radix-2 decimation-in-time butterfly with a W8^1 twiddle (12-bit
    complex I/O, registered). *)

val risc5 : unit -> Aging_netlist.Netlist.t
(** 5-stage (IF/ID/EX/MEM/WB) 16-bit pipeline: 8x16 register file, ALU,
    EX/MEM forwarding. Instruction word fed through the [instr] port. *)

val risc6 : unit -> Aging_netlist.Netlist.t
(** 6-stage variant (split execute). *)

val vliw : unit -> Aging_netlist.Netlist.t
(** 2-issue VLIW: two ALU lanes over a shared dual-write register file. *)

val counter : bits:int -> Aging_netlist.Netlist.t
(** A small up-counter with enable (used by the quickstart example and the
    fast tests). *)

val names : string list
(** The seven benchmark design names in the paper's order:
    DSP, FFT, RISC-6P, RISC-5P, VLIW, DCT, IDCT. *)

val all : unit -> (string * Aging_netlist.Netlist.t) list
(** The benchmark designs of {!names}, built. *)

val by_name : string -> Aging_netlist.Netlist.t option
