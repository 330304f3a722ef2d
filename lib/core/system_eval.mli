(** System-level evaluation: the DCT-IDCT image chain under aging
    (Sec. 5, Figs. 6c and 7).

    Images are pushed block-by-block through gate-level simulations of the
    DCT and IDCT circuits — four 1-D passes (rows/columns of the forward
    transform, then rows/columns of the inverse) — at a fixed clock period.
    When the library annotating the simulation is aged and the period was
    chosen for the fresh design, flip-flops capture late data and the
    decoded image degrades; PSNR against the original quantifies it. *)

val rated_chain_period :
  ?margin:float ->
  dct:Aging_sim.Event_sim.t ->
  idct:Aging_sim.Event_sim.t ->
  Aging_image.Image.t ->
  float
(** The operating point of the Fig. 6c experiment: the smallest clock
    period at which the full encode-decode of the given image is
    bit-identical to the error-free reference, times [margin] (default
    1.03 — the sliver of slack a signoff would leave).  The edge is found
    by five halvings of [\[0.55, 1.02\]] times the STA bound, so it is
    known to within [0.47 / 32], about 1.5 % of the STA bound (up to about
    2.7 % of the edge itself).  This is
    the gate-level measured "maximum performance in the absence of aging";
    rate it on simulations prepared with the fresh library. *)

val run_vectors :
  Aging_sim.Event_sim.t -> period:float -> int array list -> int array list
(** Streams 8-sample vectors through a prepared transform circuit (13-bit
    signed ports [I0..I7] / [O0..O7], two cycles of latency) and returns
    the transformed vectors in order. *)

val process_image :
  dct:Aging_sim.Event_sim.t ->
  idct:Aging_sim.Event_sim.t ->
  period:float ->
  Aging_image.Image.t ->
  Aging_image.Image.t
(** Full encode-decode of an image through the two simulated circuits. *)

val reference_image : Aging_image.Image.t -> Aging_image.Image.t
(** The timing-error-free result ({!Aging_image.Dct.roundtrip_image});
    what {!process_image} converges to at a sufficiently long period. *)
