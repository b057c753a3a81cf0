module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Synth = Educhip_synth.Synth
module Place = Educhip_place.Place
module Route = Educhip_route.Route
module Timing = Educhip_timing.Timing
module Power = Educhip_power.Power
module Drc = Educhip_drc.Drc
module Gds = Educhip_gds.Gds
module Designs = Educhip_designs.Designs
module Cts = Educhip_cts.Cts
module Sat = Educhip_sat.Sat
module Obs = Educhip_obs.Obs
module Runlog = Educhip_obs.Runlog
module Fault = Educhip_fault.Fault
module Guard = Educhip_fault.Guard

type preset = Open_flow | Commercial_flow | Teaching_flow

type config = {
  node : Pdk.node;
  synth_options : Synth.options;
  place_effort : Place.effort;
  route_effort : Route.effort;
  clock_period_ps : float;
  utilization : float;
  power_cycles : int;
  sizing_rounds : int;
  max_fanout : int option;
}

let preset_name = function
  | Open_flow -> "open"
  | Commercial_flow -> "commercial"
  | Teaching_flow -> "teaching"

(* Default clock: ~35 NAND2 stages of the node's intrinsic delay — tight
   enough to expose the preset gap, loose enough that designs close. *)
let default_clock node =
  let nand = Pdk.find_cell node "NAND2_X1" in
  35.0 *. (nand.Pdk.intrinsic_ps +. (nand.Pdk.load_ps_per_ff *. 6.0))

let config ~node ?clock_period_ps preset =
  let clock_period_ps =
    match clock_period_ps with
    | Some c -> c
    | None -> (
      match preset with
      | Teaching_flow -> 3.0 *. default_clock node
      | Open_flow | Commercial_flow -> default_clock node)
  in
  match preset with
  | Open_flow ->
    {
      node;
      synth_options = Synth.default_options;
      place_effort = Place.default_effort;
      route_effort = Route.default_effort;
      clock_period_ps;
      utilization = 0.6;
      power_cycles = 200;
      sizing_rounds = 0;
      max_fanout = Some 24;
    }
  | Commercial_flow ->
    {
      node;
      synth_options = Synth.high_effort_options;
      place_effort = Place.high_effort;
      route_effort = Route.high_effort;
      clock_period_ps;
      utilization = 0.7;
      power_cycles = 400;
      sizing_rounds = 6;
      max_fanout = Some 12;
    }
  | Teaching_flow ->
    {
      node;
      synth_options = Synth.low_effort_options;
      place_effort = Place.low_effort;
      route_effort = Route.low_effort;
      clock_period_ps;
      utilization = 0.5;
      power_cycles = 100;
      sizing_rounds = 0;
      max_fanout = None;
    }

(* Every config field spelled out, so any knob that can change a result
   changes the signature (and thus the scheduler's cache key). Floats
   print with %h (exact hex) — two configs differing in the 15th digit
   must not collide. *)
let config_signature cfg =
  let objective =
    match cfg.synth_options.Synth.objective with
    | Synth.Area -> "area"
    | Synth.Delay -> "delay"
  in
  Printf.sprintf
    "node=%s;synth=%d/%d/%d/%s;place=%d/%d/%d;route=%d/%d;clock=%h;util=%h;power=%d;sizing=%d;fanout=%s"
    cfg.node.Pdk.node_name cfg.synth_options.Synth.optimization_passes
    cfg.synth_options.Synth.cut_k cfg.synth_options.Synth.cuts_per_node objective
    cfg.place_effort.Place.global_iterations cfg.place_effort.Place.annealing_moves
    cfg.place_effort.Place.seed cfg.route_effort.Route.rrr_rounds
    cfg.route_effort.Route.seed cfg.clock_period_ps cfg.utilization cfg.power_cycles
    cfg.sizing_rounds
    (match cfg.max_fanout with None -> "off" | Some k -> string_of_int k)

type ppa = {
  area_um2 : float;
  cells : int;
  fmax_mhz : float;
  wns_ps : float;
  total_power_uw : float;
  wirelength_um : float;
  drc_clean : bool;
}

let ppa_signature p =
  Printf.sprintf "cells=%d area=%h wns=%h wl=%h power=%h fmax=%h drc=%b" p.cells p.area_um2
    p.wns_ps p.wirelength_um p.total_power_uw p.fmax_mhz p.drc_clean

type step_report = { step_name : string; detail : string; wall_ms : float option }

type verdict = Ok | Degraded of string list | Failed of string

type step_exec = {
  step : string;
  attempts : int;
  rung : int;
  sim_backoff_ms : float;
  step_failure : string option;
}

(* {2 Per-step memoization}

   The artifact store ([Educhip_artifact]) plugs in here without the flow
   knowing anything about keys, disks, or serialization: a [memo] maps a
   step name to a previously captured snapshot (probe) and accepts fresh
   snapshots (save). Each stored step's output is wrapped in the
   [step_state] variant; the sizing/buffering steps capture the whole
   mutated netlist because they transform it in place. The [gds] step
   stores nothing: its layout is a pure function of the routed design,
   cheaper to rebuild than to encode, so it runs live on every run and
   hands [memo_save] an [S_not_stored] snapshot. *)

type step_state =
  | S_synth of Netlist.t * Synth.report
  | S_netlist of Netlist.t  (** sizing / buffering output *)
  | S_place of Place.t
  | S_cts of Cts.t
  | S_route of Route.t
  | S_timing of Timing.report
  | S_power of Power.report
  | S_drc of Drc.report
  | S_not_stored

type step_snapshot = {
  snap_state : step_state;
  snap_report : step_report;  (** original run's report, wall time included *)
  snap_exec : step_exec;
}

type memo = {
  memo_probe : string -> step_snapshot option;
  memo_save : string -> step_snapshot -> unit;
}

type result = {
  cfg : config;
  mapped : Netlist.t;
  synth_report : Synth.report;
  placement : Place.t;
  routed : Route.t;
  clock_tree : Cts.t;
  timing : Timing.report;
  power : Power.report;
  drc : Drc.report;
  layout : Gds.t;
  ppa : ppa;
  steps : step_report list;
  execs : step_exec list;
  verdict : verdict;
}

type abort = {
  failed_step : string;
  failure_reason : string;
  trail : step_exec list;
  trail_reports : step_report list;
}

type run_outcome = Completed of result | Aborted of abort

let outcome_verdict = function
  | Completed r -> r.verdict
  | Aborted a -> Failed a.failed_step

let verdict_to_string = function
  | Ok -> "ok"
  | Degraded steps -> "degraded(" ^ String.concat "," steps ^ ")"
  | Failed step -> "failed(" ^ step ^ ")"

let step_names =
  [ "synthesis"; "sizing"; "buffering"; "placement"; "cts"; "routing"; "sta"; "power";
    "drc"; "gds" ]

let stored_step_names = List.filter (fun s -> s <> "gds") step_names

(* Timing-driven gate sizing: upsize every mapped cell on the critical
   path one drive notch per round, re-timing with ideal wires in between.
   Stops early when an iteration stops helping. *)
let size_gates mapped ~node ~rounds =
  let rec go round upsized_total best_arrival =
    if round = rounds then (upsized_total, best_arrival)
    else begin
      let report =
        Timing.analyze mapped ~node ~clock_period_ps:1e9 ()
      in
      let arrival = report.Timing.critical_arrival_ps in
      if arrival >= best_arrival && round > 0 then (upsized_total, best_arrival)
      else begin
        let upsized = Synth.upsize_cells mapped ~node report.Timing.critical_path in
        if upsized = 0 then (upsized_total, Float.min arrival best_arrival)
        else go (round + 1) (upsized_total + upsized) (Float.min arrival best_arrival)
      end
    end
  in
  go 0 0 infinity

(* All counter families the kernels can report, so a metrics dump shows
   them at zero even for steps that never fired (Prometheus idiom). *)
let kernel_metric_names =
  Synth.metric_names @ Place.metric_names @ Route.metric_names @ Sat.metric_names

let robustness_metric_names =
  [ "flow.step_retries"; "flow.step_degradations"; "flow.steps_failed";
    "guard.retries"; "guard.degraded"; "guard.gave_up"; "fault.injected" ]

(* SAT's site is deliberately absent: the template never calls the
   solver (CEC is a separate verification pass), so arming it inside a
   flow fault matrix would silently never fire. *)
let fault_sites =
  List.map (fun s -> "flow." ^ s) step_names
  @ Synth.fault_sites @ Place.fault_sites @ Route.fault_sites

(* One typed precondition check before any kernel runs, so degenerate
   inputs fail the same way regardless of which step would have tripped
   over them mid-pipeline. *)
let validate_netlist netlist =
  let problem =
    if Netlist.cell_count netlist = 0 then Some "empty netlist"
    else if Netlist.outputs netlist = [] then Some "netlist has no outputs"
    else begin
      let already_mapped = ref false in
      Netlist.iter_cells netlist (fun _ cell ->
          match cell.Netlist.kind with
          | Netlist.Mapped _ -> already_mapped := true
          | _ -> ());
      if !already_mapped then Some "netlist is already technology-mapped"
      else None
    end
  in
  match problem with
  | Some p ->
    invalid_arg (Printf.sprintf "Flow.run: %s (design %S)" p (Netlist.name netlist))
  | None -> ()

(* Degradation ladders: the configured effort first, then strictly
   simpler presets; structural dedup so a config already at the bottom
   doesn't re-run an identical rung. *)
let dedup_rungs xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

exception Step_gave_up of string * string

(* The body of {!run_guarded}, which calls the last step's [memo_save]
   once this returns: the step leaves that call in [save_last]. *)
let run_steps ~policy ?memo ~save_last netlist cfg =
  Obs.with_span "flow.run"
    ~attrs:
      ([ ("design", Obs.Str (Netlist.name netlist));
         ("node", Obs.Str cfg.node.Pdk.node_name);
         ("clock_period_ps", Obs.Float cfg.clock_period_ps) ]
      @
      (* attribute the run to its request when one is ambient, so a
         multi-request trace dump stays filterable per submission *)
      match Educhip_obs.Tracectx.current () with
      | Some ctx ->
        [ ("trace_id", Obs.Str (Educhip_obs.Tracectx.trace_id ctx)) ]
      | None -> [])
  @@ fun () ->
  if Obs.enabled () then
    List.iter (fun n -> Obs.declare_counter n)
      (kernel_metric_names @ robustness_metric_names);
  let execs = ref [] in
  let reports = ref [] in
  (* Replay only holds for the longest warm {e prefix}: artifact keys are
     chained, so a hit for step N with a miss anywhere before it would
     mean the store lost an upstream entry — recompute from the first
     miss onward rather than splicing live state into stored state. *)
  let warm = ref true in
  (* Run one template step under a guard. [rungs] is the degradation
     ladder, configured effort first; each rung returns (value, detail
     line) and may attach span attributes. The whole guarded step —
     retries included — lives in one span named after the step.
     [stored = (snap, unsnap)] wraps a stored step's output into (out of)
     {!step_state} for the memo; a warm snapshot replays the original
     run's report and exec record and skips the guard entirely. A step
     without [stored] is never probed and saves [S_not_stored]. *)
  let step ?accept ?stored ?(last = false) name rungs =
    let site = "flow." ^ name in
    let replayed =
      match (stored, memo) with
      | Some (_, unsnap), Some m when !warm -> (
        match m.memo_probe name with
        | None -> None
        | Some s -> (
          match unsnap s.snap_state with
          | None -> None
          | Some v ->
            execs := s.snap_exec :: !execs;
            reports := s.snap_report :: !reports;
            Some v))
      | _ -> None
    in
    match replayed with
    | Some v -> v
    | None ->
      warm := false;
    let exec, wall_ms =
      Obs.timed name (fun () ->
          let e = Guard.execute ~policy ?accept ~site rungs in
          if Obs.enabled () then begin
            Obs.set_attr "attempts" (Obs.Int e.Guard.attempts);
            if e.Guard.attempts > 1 then
              Obs.add_counter "flow.step_retries" (e.Guard.attempts - 1);
            match e.Guard.outcome with
            | Guard.Completed _ -> ()
            | Guard.Degraded (_, rung) ->
              Obs.set_attr "degraded_to_rung" (Obs.Int rung);
              Obs.incr_counter "flow.step_degradations"
            | Guard.Gave_up _ -> Obs.incr_counter "flow.steps_failed"
          end;
          e)
    in
    let record rung step_failure =
      execs :=
        { step = name; attempts = exec.Guard.attempts; rung;
          sim_backoff_ms = exec.Guard.sim_ms; step_failure }
        :: !execs
    in
    let report detail = reports := { step_name = name; detail; wall_ms } :: !reports in
    (* only successful steps are memoized; a store error must not fail a
       step that just computed a perfectly good result *)
    let save v =
      match memo with
      | None -> ()
      | Some m -> (
        match (!reports, !execs) with
        | r :: _, e :: _ ->
          let snap_state = match stored with Some (snap, _) -> snap v | None -> S_not_stored in
          let snap = { snap_state; snap_report = r; snap_exec = e } in
          let call () = try m.memo_save name snap with _ -> () in
          if last then save_last := call else call ()
        | _ -> ())
    in
    match exec.Guard.outcome with
    | Guard.Completed (v, detail) ->
      record 0 None;
      report detail;
      save v;
      v
    | Guard.Degraded ((v, detail), rung) ->
      record rung None;
      report (Printf.sprintf "%s [degraded to effort rung %d]" detail rung);
      save v;
      v
    | Guard.Gave_up f ->
      let reason = Guard.failure_to_string f in
      record (-1) (Some reason);
      report ("FAILED: " ^ reason);
      raise (Step_gave_up (name, reason))
  in
  try
    (* 1. synthesis *)
    let mapped, synth_report =
      step "synthesis"
        ~stored:
          ((fun (m, r) -> S_synth (m, r)), function S_synth (m, r) -> Some (m, r) | _ -> None)
        (List.map
           (fun opts () ->
             let mapped, r = Synth.synthesize netlist ~node:cfg.node opts in
             Obs.set_attr "cells" (Obs.Int r.Synth.mapped_cells);
             Obs.set_attr "aig_nodes" (Obs.Int r.Synth.aig_nodes_optimized);
             ( (mapped, r),
               Printf.sprintf "%d AIG nodes -> %d, depth %d -> %d, %d cells, %.0f um2"
                 r.Synth.aig_nodes_initial r.Synth.aig_nodes_optimized
                 r.Synth.aig_depth_initial r.Synth.aig_depth_optimized
                 r.Synth.mapped_cells r.Synth.mapped_area_um2 ))
           (dedup_rungs
              [ cfg.synth_options; Synth.default_options; Synth.low_effort_options ]))
    in
    (* 2. timing-driven gate sizing — mutates [mapped] in place, so the
       step's memoized state is the whole transformed netlist and a warm
       replay rebinds [mapped] to the restored copy *)
    let mapped =
      step "sizing"
        ~stored:((fun m -> S_netlist m), function S_netlist m -> Some m | _ -> None)
        (List.map
           (fun rounds () ->
             if rounds = 0 then (mapped, "disabled")
             else begin
               let upsized, arrival = size_gates mapped ~node:cfg.node ~rounds in
               Obs.set_attr "cells_upsized" (Obs.Int upsized);
               ( mapped,
                 Printf.sprintf
                   "%d cells upsized over <=%d rounds, ideal-wire arrival %.0f ps"
                   upsized rounds arrival )
             end)
           (dedup_rungs [ cfg.sizing_rounds; 0 ]))
    in
    (* 3. fanout buffering — in-place like sizing *)
    let mapped =
      step "buffering"
        ~stored:((fun m -> S_netlist m), function S_netlist m -> Some m | _ -> None)
        (List.map
           (fun max_fanout () ->
             match max_fanout with
             | None -> (mapped, "disabled")
             | Some max_fanout ->
               let buffers = Synth.buffer_fanout mapped ~node:cfg.node ~max_fanout in
               Obs.set_attr "buffers" (Obs.Int buffers);
               ( mapped,
                 Printf.sprintf "%d buffers inserted (max fanout %d)" buffers
                   max_fanout ))
           (dedup_rungs [ cfg.max_fanout; None ]))
    in
    (* sizing and buffering change the cell population: refresh the report *)
    let synth_report =
      { synth_report with
        Synth.mapped_area_um2 = Synth.mapped_area_um2 mapped ~node:cfg.node;
        Synth.mapped_cells =
          List.fold_left (fun acc (_, n) -> acc + n) 0 (Synth.cell_usage mapped) }
    in
    (* 4. placement *)
    let placement =
      step "placement"
        ~stored:((fun p -> S_place p), function S_place p -> Some p | _ -> None)
        (List.map
           (fun effort () ->
             let placement =
               Place.place mapped ~node:cfg.node ~utilization:cfg.utilization effort
             in
             let die_w, die_h = Place.die_um placement in
             Obs.set_attr "cells" (Obs.Int synth_report.Synth.mapped_cells);
             Obs.set_attr "hpwl_um" (Obs.Float (Place.hpwl_um placement));
             Obs.set_attr "rows" (Obs.Int (Place.row_count placement));
             ( placement,
               Printf.sprintf
                 "die %.1f x %.1f um, %d rows, HPWL %.0f um, utilization %.0f%%" die_w
                 die_h (Place.row_count placement) (Place.hpwl_um placement)
                 (Place.utilization placement *. 100.0) ))
           (dedup_rungs [ cfg.place_effort; Place.default_effort; Place.low_effort ]))
    in
    (* 5. clock-tree synthesis *)
    let clock_tree =
      step "cts"
        ~stored:((fun c -> S_cts c), function S_cts c -> Some c | _ -> None)
        [ (fun () ->
            let clock_tree = Cts.synthesize placement in
            Obs.set_attr "sinks" (Obs.Int (Cts.sink_count clock_tree));
            Obs.set_attr "skew_ps" (Obs.Float (Cts.skew_ps clock_tree));
            ( clock_tree,
              if Cts.sink_count clock_tree = 0 then "no registers - skipped"
              else Format.asprintf "%a" Cts.pp_summary clock_tree )) ]
    in
    (* 6. routing *)
    let routed =
      step "routing"
        ~stored:((fun r -> S_route r), function S_route r -> Some r | _ -> None)
        (List.map
           (fun effort () ->
             let routed = Route.route placement effort in
             let nx, ny = Route.grid_size routed in
             Obs.set_attr "wirelength_um" (Obs.Float (Route.wirelength_um routed));
             Obs.set_attr "vias" (Obs.Int (Route.via_count routed));
             Obs.set_attr "overflow" (Obs.Int (Route.overflow routed));
             ( routed,
               Printf.sprintf "grid %dx%d, wirelength %.0f um, %d vias, overflow %d"
                 nx ny (Route.wirelength_um routed) (Route.via_count routed)
                 (Route.overflow routed) ))
           (dedup_rungs [ cfg.route_effort; Route.default_effort; Route.low_effort ]))
    in
    let wire_length_of_net id = Route.net_wirelength_um routed id in
    (* 7. timing with routed wire lengths *)
    let timing =
      step "sta"
        ~stored:((fun t -> S_timing t), function S_timing t -> Some t | _ -> None)
        [ (fun () ->
            let timing =
              Timing.analyze mapped ~node:cfg.node ~wire_length_of_net
                ~clock_skew_ps:(Cts.skew_ps clock_tree)
                ~clock_period_ps:cfg.clock_period_ps ()
            in
            Obs.set_attr "wns_ps" (Obs.Float timing.Timing.wns_ps);
            Obs.set_attr "fmax_mhz" (Obs.Float timing.Timing.max_frequency_mhz);
            (timing, Format.asprintf "%a" Timing.pp_report timing)) ]
    in
    (* 8. power at the constrained clock *)
    let power =
      step "power"
        ~stored:((fun p -> S_power p), function S_power p -> Some p | _ -> None)
        (List.map
           (fun cycles () ->
             let clock_mhz = 1e6 /. cfg.clock_period_ps in
             let power =
               Power.estimate mapped ~node:cfg.node ~clock_mhz ~wire_length_of_net
                 ~cycles
                 ?clock_tree_cap_ff:
                   (if Cts.sink_count clock_tree = 0 then None
                    else Some (Cts.total_cap_ff clock_tree))
                 ()
             in
             Obs.set_attr "total_uw" (Obs.Float power.Power.total_uw);
             (power, Format.asprintf "%a" Power.pp_report power))
           (dedup_rungs [ cfg.power_cycles; max 25 (cfg.power_cycles / 4) ]))
    in
    (* 9. signoff DRC *)
    let drc =
      step "drc"
        ~stored:((fun d -> S_drc d), function S_drc d -> Some d | _ -> None)
        [ (fun () ->
            let drc = Drc.check routed in
            Obs.set_attr "violations" (Obs.Int (List.length drc.Drc.violations));
            ( drc,
              if drc.Drc.clean then Printf.sprintf "clean (%d checks)" drc.Drc.checks_run
              else
                Printf.sprintf "%d violations in %d checks"
                  (List.length drc.Drc.violations)
                  drc.Drc.checks_run )) ]
    in
    (* 10. GDS export — rebuilt from the routed design on every run, warm
       or cold: not in {!stored_step_names} *)
    let layout =
      step "gds" ~last:true
        [ (fun () ->
            let layout = Gds.build routed in
            Obs.set_attr "rects" (Obs.Int (Gds.rect_count layout));
            ( layout,
              Printf.sprintf "%d rects, %.4f mm2" (Gds.rect_count layout)
                (Gds.area_mm2 layout) )) ]
    in
    let ppa =
      {
        area_um2 = synth_report.Synth.mapped_area_um2;
        cells = synth_report.Synth.mapped_cells + synth_report.Synth.flip_flops;
        fmax_mhz = timing.Timing.max_frequency_mhz;
        wns_ps = timing.Timing.wns_ps;
        total_power_uw = power.Power.total_uw;
        wirelength_um = Route.wirelength_um routed;
        drc_clean = drc.Drc.clean;
      }
    in
    let execs = List.rev !execs in
    let degraded_steps =
      List.filter_map (fun e -> if e.rung > 0 then Some e.step else None) execs
    in
    let verdict = if degraded_steps = [] then Ok else Degraded degraded_steps in
    if Obs.enabled () then begin
      Obs.set_attr "cells" (Obs.Int ppa.cells);
      Obs.set_attr "wns_ps" (Obs.Float ppa.wns_ps);
      Obs.set_attr "wirelength_um" (Obs.Float ppa.wirelength_um);
      Obs.set_attr "drc_clean" (Obs.Bool ppa.drc_clean);
      Obs.set_attr "verdict" (Obs.Str (verdict_to_string verdict))
    end;
    Completed
      {
        cfg;
        mapped;
        synth_report;
        placement;
        routed;
        clock_tree;
        timing;
        power;
        drc;
        layout;
        ppa;
        steps = List.rev !reports;
        execs;
        verdict;
      }
  with Step_gave_up (failed_step, failure_reason) ->
    if Obs.enabled () then
      Obs.set_attr "verdict" (Obs.Str (verdict_to_string (Failed failed_step)));
    Aborted
      {
        failed_step;
        failure_reason;
        trail = List.rev !execs;
        trail_reports = List.rev !reports;
      }

let run_guarded ?(policy = Guard.default_policy) ?memo netlist cfg =
  validate_netlist netlist;
  (* The last step's [memo_save] also marks the end of the run, so it
     waits until the result is assembled and the [flow.run] span has
     closed: that work is then timed as part of the last step, and
     nothing the run allocates falls after every step's mark. *)
  let save_last = ref ignore in
  let outcome = run_steps ~policy ?memo ~save_last netlist cfg in
  !save_last ();
  outcome

let run netlist cfg =
  match run_guarded netlist cfg with
  | Completed r -> r
  | Aborted a ->
    failwith
      (Printf.sprintf "Flow.run: step %s gave up (%s)" a.failed_step a.failure_reason)

let run_design entry cfg = run (Designs.netlist entry) cfg

(* One run, one ledger line: the QoR-and-runtime record [eduflow
   report/compare] and the bench harness persist. Per-step wall times
   come from telemetry, so install a collector around the run to get
   non-zero walls. *)
let ledger_record ?(injected = []) ?fault_seed ?max_retries ~design ~node ~preset
    outcome =
  let steps_of reports execs =
    List.map
      (fun (r : step_report) ->
        let e = List.find_opt (fun e -> e.step = r.step_name) execs in
        { Runlog.step = r.step_name;
          wall_ms = Option.value r.wall_ms ~default:0.0;
          attempts = (match e with Some e -> e.attempts | None -> 1);
          rung = (match e with Some e -> e.rung | None -> 0) })
      reports
  in
  let total steps = List.fold_left (fun acc s -> acc +. s.Runlog.wall_ms) 0.0 steps in
  let guard_stats execs =
    ( List.fold_left (fun acc e -> acc + max 0 (e.attempts - 1)) 0 execs,
      List.length (List.filter (fun e -> e.rung > 0) execs) )
  in
  match outcome with
  | Completed r ->
    let steps = steps_of r.steps r.execs in
    let guard_retries, guard_degraded = guard_stats r.execs in
    Runlog.make ~design ~node ~preset ~verdict:(verdict_to_string r.verdict)
      ~total_wall_ms:(total steps) ~injected ?fault_seed ?max_retries ~guard_retries
      ~guard_degraded ~steps
      ~qor:
        { Runlog.cells = r.ppa.cells;
          area_um2 = r.ppa.area_um2;
          wns_ps = r.ppa.wns_ps;
          wirelength_um = r.ppa.wirelength_um;
          drc_violations = List.length r.drc.Drc.violations }
      ()
  | Aborted a ->
    let steps = steps_of a.trail_reports a.trail in
    let guard_retries, guard_degraded = guard_stats a.trail in
    Runlog.make ~design ~node ~preset
      ~verdict:(verdict_to_string (Failed a.failed_step))
      ~total_wall_ms:(total steps) ~injected ?fault_seed ?max_retries ~guard_retries
      ~guard_degraded ~steps ()

let pp_summary ppf r =
  Format.fprintf ppf "flow report: %s @ %s, clock %.0f ps@."
    (Netlist.name r.mapped) r.cfg.node.Pdk.node_name r.cfg.clock_period_ps;
  List.iter
    (fun s ->
      match s.wall_ms with
      | Some ms -> Format.fprintf ppf "  %-10s [%7.2f ms] %s@." s.step_name ms s.detail
      | None -> Format.fprintf ppf "  %-10s %s@." s.step_name s.detail)
    r.steps;
  Format.fprintf ppf
    "  PPA: %.0f um2, %d cells, fmax %.1f MHz, %.1f uW, wirelength %.0f um, DRC %s@."
    r.ppa.area_um2 r.ppa.cells r.ppa.fmax_mhz r.ppa.total_power_uw r.ppa.wirelength_um
    (if r.ppa.drc_clean then "clean" else "VIOLATIONS");
  (match r.verdict with
  | Ok -> ()
  | verdict ->
    let retries =
      List.fold_left (fun acc e -> acc + e.attempts - 1) 0 r.execs
    in
    Format.fprintf ppf "  verdict: %s (%d retried attempts)@."
      (verdict_to_string verdict) retries)
