(** Reproduction drivers for every table and figure of the evaluation.

    Each [figN] function regenerates the corresponding paper artifact: it
    runs the full pipeline (characterization -> libraries -> STA / synthesis
    / gate-level simulation), prints the same rows or series the paper
    reports (annotated with the paper's own numbers for comparison) and
    returns the formatted report.  The benchmark executable and
    [relaware experiment] both dispatch through {!all}. *)

type t
(** Shared experiment context: the degradation-library managers (with disk
    cache), the benchmark designs and memoized synthesis results. *)

val create : ?quick:bool -> ?cache_dir:string -> ?jobs:int -> unit -> t
(** [quick] restricts the design set (DSP, RISC-5P, DCT), shrinks the test
    image and lowers optimization effort — for smoke runs.  [cache_dir]
    defaults to ["_libcache"] relative to the working directory.  [jobs]
    (default 1) is handed to every degradation-library manager: cache-miss
    characterizations run on that many domains. *)

val deglib : t -> Degradation_library.t
(** The 10-year degradation-library manager (paper lifetime). *)

val designs : t -> (string * Aging_netlist.Netlist.t) list

val fig1 : t -> string
(** Delay-increase surfaces of NAND2 and NOR2 over the 7x7 OPC grid under
    worst-case aging (paper Fig. 1). *)

val fig2 : t -> string
(** Library-wide delay-increase distribution: single OPC vs all 49 OPCs,
    including the fraction of arcs aging improves (paper Fig. 2: ~16 %). *)

val fig3 : t -> string
(** Transistor-level two-path criticality switch (paper Fig. 3). *)

val fig5a : t -> string
(** Guardband under-estimation when ignoring mobility degradation (paper:
    -19 % on average). *)

val fig5b : t -> string
(** Guardband over-estimation with a single-OPC model (paper: +214 %). *)

val fig5c : t -> string
(** Wrong guardband when only the initial critical path is re-timed
    (paper: -6 %). *)

val fig6a : t -> string
(** Required vs contained guardband of traditional vs aging-aware synthesis
    (paper: 50 % smaller on average, up to 75 %; ~4 % higher frequency). *)

val fig6b : t -> string
(** Area overhead of aging-aware synthesis (paper: ~0.2 %). *)

val fig6c : t -> string
(** PSNR of the gate-level DCT-IDCT chain under aging scenarios at the
    no-aging frequency (paper Fig. 6c). *)

val fig7 : t -> ?dir:string -> unit -> string
(** Writes the processed images of the Fig. 7 scenarios as PGM files
    (default directory ["fig7_out"]) and reports their PSNR. *)

val libgen : t -> ?corners:Aging_physics.Scenario.corner list -> unit -> string
(** Builds the merged complete degradation-aware library (default: a 3x3
    corner sub-grid; pass [Scenario.grid ()] for the paper's 121 corners at
    ~30 s each) and reports its size; the per-corner libraries land in the
    cache directory as .alib files (the paper's released artifact). *)

val hold_check : t -> string
(** Extension beyond the paper: the {e early}-path side of aging.  Because
    some arcs get faster with age (Fig. 1b), shortest-path arrivals shrink;
    this reports fresh vs worst-case-aged minimum hold slack per design and
    how many flip-flops lose hold margin.  Not part of the paper's figure
    set. *)

val ablate_backend : t -> string
(** Transient vs closed-form characterization divergence (the multi-stage
    cell argument of Sec. 3). *)

val ablate_slew : t -> string
(** Mapping with and without slew awareness (design-choice ablation). *)

val ablate_topk : t -> string
(** How many worst paths must be tracked for the post-aging critical path
    to be captured (Sec. 3 discussion of top-x% approaches). *)

val all : (string * (t -> string)) list
(** Every experiment by its command-line name, in the order of a full
    benchmark run: the paper's figures, [libgen], the ablations, then the
    [hold] extension.  Default arguments apply ([fig7]'s output directory,
    [libgen]'s corner sub-grid). *)
