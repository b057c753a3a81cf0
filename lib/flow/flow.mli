(** RTL-to-GDSII flow orchestration.

    This is the "vendor- and technology-independent template" of the
    paper's Recommendation 4: the backend is a fixed sequence of abstract
    steps — synthesis, placement, routing, timing signoff, DRC, GDS export
    — each parameterized by the technology node and an effort preset. The
    same template instantiated with different presets models the flows the
    paper compares:

    - {!Open_flow}: conservative effort, the open-source-tool operating
      point (experiment E6's baseline);
    - {!Commercial_flow}: high effort everywhere — more optimization
      passes, delay-driven mapping, large annealing and rip-up budgets;
    - {!Teaching_flow}: minimum effort and relaxed clocks, the
      "beginner tier" of Recommendation 8. *)

type preset = Open_flow | Commercial_flow | Teaching_flow

type config = {
  node : Educhip_pdk.Pdk.node;
  synth_options : Educhip_synth.Synth.options;
  place_effort : Educhip_place.Place.effort;
  route_effort : Educhip_route.Route.effort;
  clock_period_ps : float;
  utilization : float;
  power_cycles : int;
  sizing_rounds : int;
      (** timing-driven gate-sizing iterations after synthesis: each round
          upsizes the critical path's cells one drive strength (0 = off —
          open-source flows historically lack this step, §III-D) *)
  max_fanout : int option;
      (** fanout-buffering limit applied after synthesis ([None] = off);
          high-fanout nets (scan enables, opcode decoders) get buffer
          trees, which also keeps routed nets under the DRC length rule *)
}

val config :
  node:Educhip_pdk.Pdk.node -> ?clock_period_ps:float -> preset -> config
(** Instantiate the step template. The default clock constraint scales
    with the node (tighter on smaller geometries). *)

val preset_name : preset -> string

val config_signature : config -> string
(** A deterministic, human-readable rendering of {e every} field of the
    config (node name, all synthesis/placement/routing knobs, clock,
    utilization, power cycles, sizing rounds, fanout cap). Two configs
    that could produce different flow results render differently — the
    config component of [Educhip_sched.Cache] keys. *)

type ppa = {
  area_um2 : float;
  cells : int;
  fmax_mhz : float;
  wns_ps : float;
  total_power_uw : float;
  wirelength_um : float;
  drc_clean : bool;
}

val ppa_signature : ppa -> string
(** Every field on one line, floats in [%h] so equal strings mean
    bit-identical numbers: what the smoke checks and the chaos harness
    compare when they promise identical QoR. *)

type step_report = {
  step_name : string;
  detail : string;
  wall_ms : float option;
      (** measured step wall time; [None] unless an [Educhip_obs.Obs]
          collector was installed during {!run} *)
}

type verdict =
  | Ok  (** every step completed at its configured effort *)
  | Degraded of string list
      (** completed, but the named steps only succeeded on a lower
          rung of their effort-degradation ladder *)
  | Failed of string
      (** the named step exhausted its retries and its ladder *)

type step_exec = {
  step : string;
  attempts : int;  (** total attempts across all ladder rungs (>= 1) *)
  rung : int;
      (** ladder rung of the successful attempt: 0 = configured effort,
          [> 0] = degraded, [-1] = the step gave up *)
  sim_backoff_ms : float;
      (** simulated time this step spent on backoff delays and blown
          hang budgets (see {!Educhip_fault.Guard}) *)
  step_failure : string option;  (** give-up reason; [None] on success *)
}

type step_state =
  | S_synth of Educhip_netlist.Netlist.t * Educhip_synth.Synth.report
  | S_netlist of Educhip_netlist.Netlist.t
      (** output of the in-place sizing / buffering steps *)
  | S_place of Educhip_place.Place.t
  | S_cts of Educhip_cts.Cts.t
  | S_route of Educhip_route.Route.t
  | S_timing of Educhip_timing.Timing.report
  | S_power of Educhip_power.Power.report
  | S_drc of Educhip_drc.Drc.report
  | S_not_stored
      (** saved by the steps outside {!stored_step_names} ([gds]): they
          rerun on every run, so there is nothing to store *)
(** One step's output, wrapped for per-step memoization. *)

type step_snapshot = {
  snap_state : step_state;
  snap_report : step_report;
      (** the original run's report — replays keep its wall time, so a
          ledger built from a warm run carries the cost actually paid *)
  snap_exec : step_exec;
}

type memo = {
  memo_probe : string -> step_snapshot option;
      (** [memo_probe step_name] returns a warm snapshot to replay, or
          [None] to run the step live. Probed for {!stored_step_names}
          only, in step order, and only while every previous step
          replayed (the warm prefix) — the first miss switches the rest
          of the run live. *)
  memo_save : string -> step_snapshot -> unit;
      (** called after every successful live step, stored or not (a
          step outside {!stored_step_names} saves {!S_not_stored}), so
          it also marks each step's end; the last step's call comes
          after the run's result is assembled and its [flow.run] span
          closed, just before {!run_guarded} returns. Failed steps are
          never memoized. Exceptions are swallowed — a storage error
          must not fail a computed step. *)
}
(** Storage-agnostic per-step memoization hook for {!run_guarded}:
    [Educhip_artifact] implements it over a content-addressed store.
    The flow itself never sees keys or serialization. *)

type result = {
  cfg : config;
  mapped : Educhip_netlist.Netlist.t;
  synth_report : Educhip_synth.Synth.report;
  placement : Educhip_place.Place.t;
  routed : Educhip_route.Route.t;
  clock_tree : Educhip_cts.Cts.t;
  timing : Educhip_timing.Timing.report;
  power : Educhip_power.Power.report;
  drc : Educhip_drc.Drc.report;
  layout : Educhip_gds.Gds.t;
  ppa : ppa;
  steps : step_report list;  (** one per template step, in order *)
  execs : step_exec list;  (** per-step guarded-execution records, in order *)
  verdict : verdict;  (** {!Ok} or {!Degraded} — a completed run never
                          carries {!Failed} *)
}

type abort = {
  failed_step : string;
  failure_reason : string;
  trail : step_exec list;
      (** execution records up to and including the failed step *)
  trail_reports : step_report list;  (** matching human-readable lines *)
}

type run_outcome = Completed of result | Aborted of abort

val outcome_verdict : run_outcome -> verdict
(** The flow-level verdict: the result's own on [Completed],
    [Failed step] on [Aborted]. *)

val verdict_to_string : verdict -> string

val run_guarded :
  ?policy:Educhip_fault.Guard.policy ->
  ?memo:memo ->
  Educhip_netlist.Netlist.t ->
  config ->
  run_outcome
(** Execute the whole template on an elaborated RTL netlist, every step
    under an {!Educhip_fault.Guard}: a failing step (a kernel exception,
    an injected fault from an armed {!Educhip_fault.Fault} plan, or a
    blown step budget) is retried with capped exponential backoff in
    simulated time, then re-run down an effort-degradation ladder
    (configured preset → default → low), and only aborts the flow once
    the ladder is exhausted. Step exceptions therefore never escape:
    the outcome is always [Completed] (verdict {!Ok} or {!Degraded}) or
    [Aborted] (verdict {!Failed}), and with a fault plan armed the
    outcome is reproducible from the plan's [(seed, plan)].

    When an [Educhip_obs.Obs] collector is installed, the run is traced:
    a root [flow.run] span contains one child span per {!step_names}
    entry carrying the step's key numbers (cells, HPWL, wirelength, WNS,
    DRC violations, ...) plus its [attempts] and degradation rung as
    attributes; retries, degradations, and give-ups are counted in the
    {!robustness_metric_names} families, and every kernel counter family
    is pre-declared so it appears in the metrics dump even at zero.
    Without a collector the instrumentation — and the disarmed fault
    probes — are no-ops.

    With [memo], the longest warm prefix of {!stored_step_names} is
    {e replayed} from snapshots instead of executed (the [gds] layout is
    always rebuilt live from the replayed routing): the stored state, report, and exec
    record stand in for the live ones, fault probes for replayed steps
    are skipped (their outcome is already baked into the snapshot), and
    the first probe miss switches the remainder of the run live, saving
    each freshly computed step back through [memo_save]. A replayed run
    is bit-identical to a cold run in everything but wall-clock.
    @raise Invalid_argument on an empty netlist, a netlist with no
    outputs, or an already technology-mapped netlist. *)

val run : Educhip_netlist.Netlist.t -> config -> result
(** {!run_guarded} with the default policy, unwrapped for the common
    case where nothing is expected to fail.
    @raise Invalid_argument on an empty netlist, a netlist with no
    outputs, or an already technology-mapped netlist.
    @raise Failure if a step exhausts its retry/degradation budget
    (only reachable under fault injection or a kernel defect). *)

val run_design : Educhip_designs.Designs.entry -> config -> result
(** Convenience: elaborate a benchmark entry and {!run} it. *)

val ledger_record :
  ?injected:string list ->
  ?fault_seed:int ->
  ?max_retries:int ->
  design:string ->
  node:string ->
  preset:string ->
  run_outcome ->
  Educhip_obs.Runlog.record
(** Summarize a run outcome as one {!Educhip_obs.Runlog} ledger record:
    verdict, per-step wall times with guard attempts and rungs, total
    wall time, guard retry/degradation totals, and (for completed runs)
    the QoR snapshot — cells, area, WNS, total wirelength, DRC violation
    count. [injected]/[fault_seed]/[max_retries] document the fault and
    guard configuration the run executed under. Per-step wall times are
    zero unless an [Educhip_obs.Obs] collector was installed during the
    run. *)

val pp_summary : Format.formatter -> result -> unit
(** Multi-line human-readable flow report. *)

val step_names : string list
(** The template's step sequence (Recommendation 4's partitioning). *)

val stored_step_names : string list
(** The steps whose output a {!memo} can store and replay, in template
    order: every step but [gds], whose layout is a pure function of the
    routed design — cheaper to rebuild than to encode — and so reruns
    on every run, warm or cold. *)

val kernel_metric_names : string list
(** Every counter family the flow's kernels can report to
    [Educhip_obs.Obs] (synthesis, placement, routing, SAT), declared at
    zero at the start of a telemetry-enabled {!run}. *)

val robustness_metric_names : string list
(** Counter families the guarded flow reports or pre-declares:
    [flow.step_retries], [flow.step_degradations], [flow.steps_failed],
    plus the guard-level [guard.retries] / [guard.degraded] /
    [guard.gave_up] and the injector's [fault.injected] — declared at
    zero so a clean run's metrics dump still shows the whole family. *)

val fault_sites : string list
(** Every [Educhip_fault] site a {!run_guarded} can probe: one
    [flow.<step>] site per {!step_names} entry plus the kernel-interior
    sites of synthesis, placement, and routing. (SAT's [sat.solve] site
    is excluded — the template itself never calls the solver.) *)
