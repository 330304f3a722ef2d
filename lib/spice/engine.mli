(** Adaptive backward-Euler transient engine.

    The solver integrates the node-voltage ODE of a {!Circuit.t} with
    backward Euler and a damped chord-Newton iteration per step.  The
    device linearization (analytic alpha-power derivatives from
    {!Mosfet.channel_current_deriv}; finite differences behind
    [fd_jacobian] for differential testing) is held fixed across Newton
    iterations {e and across accepted steps}, and is re-assembled only
    when the iteration stalls.  Its dense LU factorization is split into
    factor and solve phases: one factorization (flat row-major storage,
    partial pivoting) serves every iteration at a given step size, and a
    step-size change refactors without re-linearizing the devices.  The
    step size adapts to the largest per-step voltage change, including
    that of driven inputs, so slow 1 ns ramps and sub-10 ps edges are both
    resolved.

    Before [t = 0] the circuit is settled to a DC operating point by
    pseudo-transient continuation with inputs frozen at their [t <= 0]
    values; the settle march exits early once the state is stationary at
    the step-size ceiling ([settle_exit_dv]).

    A singular linear system (a collapsed LU pivot, e.g. a free node with
    no capacitance and no conduction path) is never papered over with a
    clamped pivot: the Newton attempt fails, the step is rejected, and the
    occurrence is counted in [singular_systems] (and the process-global
    [engine.singular_systems] counter). *)

type result
(** Transient run output: every accepted time point for every node. *)

type diagnostics = {
  rejected_steps : int;
      (** step attempts discarded (Newton failure, singular system, or
          too-large voltage change) and retried at half the step size *)
  non_converged_steps : int;
      (** recorded ([t >= 0]) steps accepted at the [dt_min] floor without
          Newton convergence — a nonzero count means the waveform may be
          inaccurate and the run should be retried or discarded *)
  settle_non_converged : int;
      (** same, but during the pre-[t=0] DC settling march *)
  jacobian_refreshes : int;
      (** device re-linearizations (Jacobian assemblies) over the whole
          run; with the chord scheme this is far below the step count *)
  newton_iterations : int;
      (** Newton iterations over the whole run, DC settle included *)
  singular_systems : int;
      (** LU factorizations that met a collapsed pivot; each one failed
          the Newton attempt into the step-rejection path *)
}

type options = {
  dt_min : float;      (** floor on the step size [s] *)
  dt_max : float;      (** ceiling on the step size [s] *)
  dv_target : float;   (** per-step voltage change that keeps dt unchanged [V] *)
  dv_reject : float;   (** per-step change that rejects and halves dt [V] *)
  newton_tol : float;  (** Newton update norm for convergence [V] *)
  newton_max : int;    (** maximum Newton iterations per step *)
  settle_time : float; (** pseudo-transient DC settling duration [s] *)
  c_floor : float;     (** minimum grounded capacitance per free node [F] *)
  fd_jacobian : bool;
      (** linearize devices by finite differences instead of the analytic
          derivatives — slower; kept for differential testing (default
          [false]) *)
  settle_exit_dv : float;
      (** stationarity threshold for the early settle exit [V]: the DC
          march stops after three consecutive converged steps at the [dt]
          ceiling that each moved no node by more than this; [0.] runs
          the full [settle_time] window *)
}

val default_options : options

val transient :
  ?options:options ->
  ?init:(Circuit.node * float) list ->
  ?stop_when:(float -> float array -> bool) ->
  Circuit.t ->
  drives:(Circuit.node * Stimulus.t) list ->
  t_stop:float ->
  result
(** Runs from the settled operating point to [t_stop].  [init] seeds the
    free-node voltages before settling (defaults to 0 V) — a warm start
    from a previously solved neighbouring operating point belongs here.
    [stop_when t v] is checked after every accepted step (with the full
    node-voltage vector); returning [true] ends the run early — used by
    characterization to cut the post-transition tail.
    @raise Invalid_argument if [t_stop <= 0], a drive targets a rail or
    an unknown node, two drives target the same node, or an [init] entry
    targets a rail, an unknown node, or a driven node. *)

val waveform : result -> Circuit.node -> Waveform.t
(** Sampled voltage of one node over [0, t_stop]. *)

val final_voltage : result -> Circuit.node -> float

val settled_state : result -> float array
(** Voltage of every node at [t = 0], i.e. the DC operating point the
    pre-roll settle converged to — the warm-start seed for a neighbouring
    run on the same circuit topology with the same [t <= 0] drive values
    (pass it as [init] there). *)

val steps : result -> int
(** Number of accepted time steps (diagnostic). *)

val diagnostics : result -> diagnostics
(** Solver-health counters of the run; see {!diagnostics}. *)

val converged : result -> bool
(** [true] iff no recorded step was accepted without Newton convergence
    ([non_converged_steps = 0]). *)
