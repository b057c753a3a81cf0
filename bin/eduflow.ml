(* eduflow: run the RTL-to-GDSII template flow on a benchmark design.

   Examples:
     dune exec bin/eduflow.exe -- run alu8
     dune exec bin/eduflow.exe -- run mult8 --node edu28 --preset commercial --gds /tmp/m8.gds
     dune exec bin/eduflow.exe -- run alu8 --trace t.json --ledger runs.jsonl
     dune exec bin/eduflow.exe -- compare --ledger runs.jsonl
     dune exec bin/eduflow.exe -- list
     dune exec bin/eduflow.exe -- nodes *)

module Pdk = Educhip_pdk.Pdk
module Flow = Educhip_flow.Flow
module Designs = Educhip_designs.Designs
module Gds = Educhip_gds.Gds
module Drc = Educhip_drc.Drc
module Cec = Educhip_cec.Cec
module Verilog = Educhip_netlist.Verilog
module Dft = Educhip_dft.Dft
module Synth = Educhip_synth.Synth
module Table = Educhip_util.Table
module Obs = Educhip_obs.Obs
module Prof = Educhip_obs.Prof
module Runlog = Educhip_obs.Runlog
module Regress = Educhip_obs.Regress
module Fault = Educhip_fault.Fault
module Guard = Educhip_fault.Guard
module Jsonout = Educhip_obs.Jsonout
module Manifest = Educhip_sched.Manifest
module Cache = Educhip_sched.Cache
module Astore = Educhip_artifact.Store
module Artifact = Educhip_artifact.Artifact
module Stepkey = Educhip_artifact.Stepkey
module Sched = Educhip_sched.Sched
module Wire = Educhip_serve.Wire
module Client = Educhip_serve.Client
module Server = Educhip_serve.Server
module Tracectx = Educhip_obs.Tracectx
module Slo = Educhip_obs.Slo
module Mclock = Educhip_util.Mclock
module Tsdb = Educhip_mon.Tsdb
module Scrape = Educhip_mon.Scrape
module Rules = Educhip_mon.Rules
module Alertlog = Educhip_mon.Alertlog

open Cmdliner

(* [eduflow ... | head -1]: the reader has what it wanted and closes the
   pipe. SIGPIPE stays ignored (sockets need their EPIPE), so the lost
   reader surfaces as a [Sys_error] on the next stdout write. Every
   stdout write in this file goes through [on_stdout], which on EPIPE
   points fd 1 at /dev/null and carries on: the command still writes
   its files and ends with its own exit code. *)
let on_stdout f =
  try f ()
  with Sys_error msg when msg = Unix.error_message Unix.EPIPE ->
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null;
    f ()

let print_string s = on_stdout (fun () -> print_string s)
let print_endline s = on_stdout (fun () -> print_endline s)
let print_newline () = on_stdout print_newline
let flush_stdout () = on_stdout (fun () -> flush stdout)

(* [%!] is a no-op here: flush with [flush_stdout] *)
module Printf = struct
  include Printf

  let printf fmt = ksprintf print_string fmt
end

let () =
  Format.pp_set_formatter_out_functions Format.std_formatter
    { (Format.pp_get_formatter_out_functions Format.std_formatter ()) with
      Format.out_string = (fun s pos len -> on_stdout (fun () -> output_substring stdout s pos len));
      out_flush = flush_stdout }

let list_designs () =
  let table =
    Table.create ~title:"benchmark designs"
      ~columns:
        [ ("name", Table.Left); ("category", Table.Left); ("description", Table.Left) ]
  in
  List.iter
    (fun e ->
      Table.add_row table [ e.Designs.name; e.Designs.category; e.Designs.description ])
    Designs.all;
  print_string (Table.render table)

let list_nodes () =
  let table =
    Table.create ~title:"technology nodes"
      ~columns:
        [
          ("node", Table.Left);
          ("feature", Table.Right);
          ("access", Table.Left);
          ("MPW EUR/mm2", Table.Right);
          ("turnaround wks", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      Table.add_row table
        [
          n.Pdk.node_name;
          Printf.sprintf "%g nm" n.Pdk.feature_nm;
          (match n.Pdk.access with
          | Pdk.Open_pdk -> "open"
          | Pdk.Nda -> "NDA"
          | Pdk.Nda_with_track_record -> "NDA+track-record");
          Table.cell_float ~decimals:0 n.Pdk.mpw_cost_eur_per_mm2;
          Table.cell_float ~decimals:0 n.Pdk.turnaround_weeks;
        ])
    Pdk.nodes;
  print_string (Table.render table)

(* The export plumbing (collector install + exactly-once at_exit writes,
   covering the early [exit] paths) is shared with the enablement CLI via
   [Obs.export_on_exit]. A ledger or folded-stack request needs the
   collector too — per-step wall times come from spans — even when no
   trace/metrics file was asked for. *)
let setup_telemetry ?trace ?metrics ?metrics_text ~need_collector () =
  match Obs.export_on_exit ?trace ?metrics ?metrics_text () with
  | Some c -> Some c
  | None ->
    if not need_collector then None
    else begin
      let c = Obs.create () in
      Obs.install c;
      Some c
    end

let run_flow design_name node_name preset_name_ clock_ps gds_path verilog_path verify
    scan trace_path metrics_path prom_path ledger_path folded_path inject_specs
    fault_seed retries step_budget_ms artifact_dir artifact_max =
  let collector =
    setup_telemetry ?trace:trace_path ?metrics:metrics_path ?metrics_text:prom_path
      ~need_collector:(ledger_path <> None || folded_path <> None)
      ()
  in
  let plan =
    try List.map Fault.arming_of_string inject_specs
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      Printf.eprintf "known sites: %s\n" (String.concat " " Flow.fault_sites);
      exit 1
  in
  List.iter
    (fun (a : Fault.arming) ->
      if not (List.mem a.Fault.site Flow.fault_sites) then
        Printf.eprintf "warning: fault site %s is not probed by this flow\n"
          a.Fault.site)
    plan;
  let policy =
    { Guard.default_policy with Guard.max_retries = retries;
      Guard.step_budget_ms = step_budget_ms }
  in
  if plan <> [] then Fault.arm ~seed:fault_seed plan;
  match Designs.find design_name with
  | exception Not_found ->
    Printf.eprintf "unknown design %s (try: eduflow list)\n" design_name;
    exit 1
  | entry -> (
    match Pdk.find_node node_name with
    | exception Not_found ->
      Printf.eprintf "unknown node %s (try: eduflow nodes)\n" node_name;
      exit 1
    | node ->
      let preset =
        match preset_name_ with
        | "open" -> Flow.Open_flow
        | "commercial" -> Flow.Commercial_flow
        | "teaching" -> Flow.Teaching_flow
        | other ->
          Printf.eprintf "unknown preset %s (open|commercial|teaching)\n" other;
          exit 1
      in
      let cfg = Flow.config ~node ?clock_period_ps:clock_ps preset in
      let rtl = Designs.netlist entry in
      let rtl =
        if not scan then rtl
        else begin
          let scanned, report = Dft.insert_scan rtl in
          Printf.printf "scan insertion: %d-flop chain, %d muxes added\n"
            report.Dft.chain_length report.Dft.muxes_added;
          scanned
        end
      in
      let memo =
        Option.map
          (fun dir ->
            let store = Astore.create ~max_entries:artifact_max ~dir () in
            let depth =
              Artifact.warm_prefix ~store ~netlist:rtl ~cfg ~inject:plan
                ~fault_seed ~retries
            in
            (if depth = 0 then
               Printf.printf "artifacts: cold (%s)\n" dir
             else if depth >= List.length Flow.stored_step_names then
               Printf.printf "artifacts: full replay from %s\n" dir
             else
               Printf.printf "artifacts: resuming at %s (%d warm step%s, %s)\n"
                 (List.nth Flow.stored_step_names depth)
                 depth
                 (if depth = 1 then "" else "s")
                 dir);
            Artifact.memo ~store ~netlist:rtl ~cfg ~inject:plan ~fault_seed
              ~retries)
          artifact_dir
      in
      let outcome = Flow.run_guarded ~policy ?memo rtl cfg in
      (* telemetry deliverables that apply to aborted runs too: the
         ledger line, the folded stacks, and the profile summary *)
      (match ledger_path with
      | Some path ->
        let record =
          Flow.ledger_record
            ~injected:(List.map Fault.arming_to_string plan)
            ~fault_seed ~max_retries:retries ~design:design_name
            ~node:node.Pdk.node_name ~preset:(Flow.preset_name preset) outcome
        in
        Runlog.append ~path record;
        Printf.printf "ledger record appended to %s\n" path
      | None -> ());
      (match (collector, folded_path) with
      | Some c, Some path ->
        Prof.write_folded c ~path;
        Printf.printf "folded stacks written to %s\n" path
      | _ -> ());
      (match collector with
      | Some c when trace_path <> None ->
        Format.printf "%a" (Prof.pp_summary ~top:8) (Prof.of_collector c)
      | _ -> ());
      let result =
        match outcome with
        | Flow.Completed result -> result
        | Flow.Aborted a ->
          Printf.printf "flow FAILED at step %s: %s\n" a.Flow.failed_step
            a.Flow.failure_reason;
          List.iter
            (fun e ->
              Printf.printf "  %-10s %d attempt%s%s\n" e.Flow.step e.Flow.attempts
                (if e.Flow.attempts = 1 then "" else "s")
                (match e.Flow.step_failure with
                | Some r -> " - " ^ r
                | None -> if e.Flow.rung > 0 then " (degraded)" else ""))
            a.Flow.trail;
          exit 4
      in
      Format.printf "%a" Flow.pp_summary result;
      if not result.Flow.drc.Drc.clean then begin
        print_endline "DRC violations:";
        List.iter
          (fun v -> Format.printf "  %a@." Drc.pp_violation v)
          result.Flow.drc.Drc.violations
      end;
      (match gds_path with
      | Some path ->
        Gds.write_gds result.Flow.layout ~path;
        Printf.printf "GDSII written to %s\n" path
      | None -> ());
      (match verilog_path with
      | Some path ->
        Verilog.write_file result.Flow.mapped ~path;
        Printf.printf "mapped Verilog written to %s\n" path
      | None -> ());
      if verify then begin
        match Cec.check rtl result.Flow.mapped with
        | Cec.Equivalent -> print_endline "formal verification: RTL == mapped netlist"
        | v ->
          Format.printf "formal verification FAILED: %a@." Cec.pp_verdict v;
          exit 3
      end;
      if not result.Flow.drc.Drc.clean then exit 2)

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc:"Benchmark design name.")

let node_arg =
  Arg.(value & opt string "edu130" & info [ "node" ] ~docv:"NODE" ~doc:"Technology node.")

let preset_arg =
  Arg.(
    value
    & opt string "open"
    & info [ "preset" ] ~docv:"PRESET" ~doc:"Flow preset: open, commercial, or teaching.")

let clock_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "clock-ps" ] ~docv:"PS" ~doc:"Clock period constraint in picoseconds.")

let gds_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "gds" ] ~docv:"PATH" ~doc:"Write the final GDSII stream to this file.")

let verilog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "verilog" ] ~docv:"PATH" ~doc:"Write the mapped structural Verilog to this file.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Formally verify (SAT-based CEC) that the mapped netlist matches the RTL.")

let scan_arg =
  Arg.(
    value & flag
    & info [ "scan" ] ~doc:"Insert a scan chain before synthesis (sequential designs only).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record a hierarchical trace of the run and write it to this file in Chrome \
           trace_event JSON (open in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:"Write kernel counters, gauges, and histograms to this file as JSON.")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"PATH"
        ~doc:
          "Write the metrics in Prometheus text exposition format (scrape-ready: \
           counters, gauges, and histogram summaries with quantiles).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"PATH"
        ~doc:
          "Append one JSONL record for this run to the ledger: design, preset, \
           fault/guard config, verdict, per-step wall times, and the QoR snapshot. \
           Inspect with 'eduflow report', gate with 'eduflow compare'.")

let folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"PATH"
        ~doc:
          "Write the run's spans as folded stacks (one 'a;b;c <us>' line per unique \
           path) for flamegraph.pl or any flame-graph renderer.")

let inject_arg =
  Arg.(
    value & opt_all string []
    & info [ "inject" ] ~docv:"SITE:KIND[@N]"
        ~doc:
          "Arm a deterministic fault (repeatable): KIND is crash, hang, or corrupt; \
           @N fires it N times. Example: --inject flow.routing:crash@2.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault plan (reproducible injection).")

let retries_arg =
  Arg.(
    value & opt int Guard.default_policy.Guard.max_retries
    & info [ "retries" ] ~docv:"N"
        ~doc:"Extra attempts per effort rung before a step degrades.")

let step_budget_arg =
  Arg.(
    value & opt float Guard.default_policy.Guard.step_budget_ms
    & info [ "step-budget" ] ~docv:"MS"
        ~doc:"Simulated per-attempt work budget charged by an injected hang.")

let artifact_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifact-dir" ] ~docv:"DIR"
        ~doc:
          "Enable the per-step incremental artifact store in $(docv): the flow \
           resumes from the deepest prefix of steps whose content keys are \
           already stored (an RTL or config edit reruns only the steps at and \
           below the first change), and stores every freshly computed step \
           but gds, whose layout is rebuilt from the routing state. Warm \
           results are bit-identical to cold runs.")

let artifact_max_arg =
  Arg.(
    value & opt int Educhip_artifact.Store.default_max_entries
    & info [ "artifact-max" ] ~docv:"N"
        ~doc:"Artifact entry cap; least-recently-used entries beyond it are evicted.")

let run_term =
  Term.(
    const run_flow $ design_arg $ node_arg $ preset_arg $ clock_arg $ gds_arg
    $ verilog_arg $ verify_arg $ scan_arg $ trace_arg $ metrics_arg $ prom_arg
    $ ledger_arg $ folded_arg $ inject_arg $ fault_seed_arg $ retries_arg
    $ step_budget_arg $ artifact_dir_arg $ artifact_max_arg)

let run_cmd =
  let doc = "run the full synthesis/place/route/signoff flow on a design" in
  Cmd.v (Cmd.info "run" ~doc) run_term

let list_cmd =
  let doc = "list the benchmark designs" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_designs $ const ())

let fpga design_name k =
  match Designs.find design_name with
  | exception Not_found ->
    Printf.eprintf "unknown design %s (try: eduflow list)\n" design_name;
    exit 1
  | entry ->
    let nl = Designs.netlist entry in
    let r = Synth.lut_map nl ~k in
    Printf.printf "%s as LUT%d: %d LUTs, depth %d, %d flip-flops\n" design_name r.Synth.k
      r.Synth.luts r.Synth.lut_depth r.Synth.lut_flip_flops

let k_arg =
  Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"LUT input count (3..6).")

let fpga_cmd =
  let doc = "map a design to K-input LUTs (FPGA prototyping estimate)" in
  Cmd.v (Cmd.info "fpga" ~doc) Term.(const fpga $ design_arg $ k_arg)

let nodes_cmd =
  let doc = "list the technology nodes" in
  Cmd.v (Cmd.info "nodes" ~doc) Term.(const list_nodes $ const ())

(* {1 Ledger inspection and regression gating} *)

let load_ledger path =
  match Runlog.load ~path with
  | [] ->
    Printf.eprintf "ledger %s is missing or holds no parseable records\n" path;
    exit 2
  | records -> records

let report_ledger path =
  let records = load_ledger path in
  let table =
    Table.create
      ~title:(Printf.sprintf "run ledger %s (%d records)" path (List.length records))
      ~columns:
        [ ("#", Table.Right); ("design", Table.Left); ("node", Table.Left);
          ("preset", Table.Left); ("verdict", Table.Left); ("wall ms", Table.Right);
          ("cells", Table.Right); ("area um2", Table.Right); ("wns ps", Table.Right);
          ("wire um", Table.Right); ("drc", Table.Right); ("retries", Table.Right) ]
  in
  List.iteri
    (fun i (r : Runlog.record) ->
      let q fmt f = match r.Runlog.qor with Some q -> fmt (f q) | None -> "-" in
      Table.add_row table
        [ Table.cell_int (i + 1); r.Runlog.design; r.Runlog.node; r.Runlog.preset;
          r.Runlog.verdict;
          Table.cell_float ~decimals:2 r.Runlog.total_wall_ms;
          q Table.cell_int (fun x -> x.Runlog.cells);
          q (Table.cell_float ~decimals:0) (fun x -> x.Runlog.area_um2);
          q (Table.cell_float ~decimals:1) (fun x -> x.Runlog.wns_ps);
          q (Table.cell_float ~decimals:0) (fun x -> x.Runlog.wirelength_um);
          q Table.cell_int (fun x -> x.Runlog.drc_violations);
          Table.cell_int r.Runlog.guard_retries ])
    records;
  print_string (Table.render table);
  match Runlog.last records with
  | None -> ()
  | Some r ->
    Printf.printf "last run (%s @ %s, %s preset) steps:\n" r.Runlog.design
      r.Runlog.node r.Runlog.preset;
    List.iter
      (fun (s : Runlog.step) ->
        Printf.printf "  %-10s %8.2f ms  %d attempt%s%s\n" s.Runlog.step
          s.Runlog.wall_ms s.Runlog.attempts
          (if s.Runlog.attempts = 1 then "" else "s")
          (if s.Runlog.rung > 0 then Printf.sprintf " (rung %d)" s.Runlog.rung
           else if s.Runlog.rung < 0 then " (gave up)"
           else ""))
      r.Runlog.steps

let all_but_last records =
  match List.rev records with [] -> [] | _ :: rest -> List.rev rest

let compare_ledger path against max_wall_pct max_step_pct wall_floor_ms max_cells_pct
    max_area_pct max_wirelength_pct wns_margin_ps max_extra_drc =
  let records = load_ledger path in
  let candidate =
    match Runlog.last records with
    | Some r -> r
    | None -> assert false (* load_ledger rejects empty ledgers *)
  in
  let history =
    Runlog.matching ~design:candidate.Runlog.design ~node:candidate.Runlog.node
      ~preset:candidate.Runlog.preset (all_but_last records)
  in
  if history = [] then begin
    Printf.printf "no baseline run for %s @ %s (%s preset) in %s - nothing to compare\n"
      candidate.Runlog.design candidate.Runlog.node candidate.Runlog.preset path;
    exit 0
  end;
  let thresholds =
    { Regress.max_wall_pct; max_step_pct; wall_floor_ms; max_cells_pct; max_area_pct;
      max_wirelength_pct; wns_margin_ps; max_extra_drc }
  in
  let baseline, label =
    match against with
    | "median" -> (
      match Regress.median_baseline history with
      | Some b -> (b, Printf.sprintf "median of %d runs" (List.length history))
      | None -> assert false (* history is non-empty *))
    | "prev" ->
      ( List.nth history (List.length history - 1),
        Printf.sprintf "previous run (%d in ledger)" (List.length history) )
    | other ->
      Printf.eprintf "unknown baseline mode %s (prev|median)\n" other;
      exit 2
  in
  let report = Regress.compare_records ~thresholds ~baseline_label:label ~baseline candidate in
  Format.printf "%a" Regress.pp_report report;
  if Regress.has_regression report then exit 1

let compare_ledger_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "ledger" ] ~docv:"PATH" ~doc:"The JSONL run ledger to read.")

let against_arg =
  Arg.(
    value & opt string "prev"
    & info [ "against" ] ~docv:"MODE"
        ~doc:
          "Baseline: 'prev' (the previous comparable run) or 'median' (per-metric \
           median of every prior comparable run).")

let dflt = Regress.default_thresholds

let max_wall_pct_arg =
  Arg.(
    value & opt float dflt.Regress.max_wall_pct
    & info [ "max-wall-pct" ] ~docv:"PCT"
        ~doc:"Allowed total wall-time increase in percent.")

let max_step_pct_arg =
  Arg.(
    value & opt float dflt.Regress.max_step_pct
    & info [ "max-step-pct" ] ~docv:"PCT"
        ~doc:"Allowed per-step wall-time increase in percent.")

let wall_floor_arg =
  Arg.(
    value & opt float dflt.Regress.wall_floor_ms
    & info [ "wall-floor-ms" ] ~docv:"MS"
        ~doc:"Wall-time increases below this absolute value never count as regressions.")

let max_cells_pct_arg =
  Arg.(
    value & opt float dflt.Regress.max_cells_pct
    & info [ "max-cells-pct" ] ~docv:"PCT" ~doc:"Allowed cell-count increase in percent.")

let max_area_pct_arg =
  Arg.(
    value & opt float dflt.Regress.max_area_pct
    & info [ "max-area-pct" ] ~docv:"PCT" ~doc:"Allowed area increase in percent.")

let max_wirelength_pct_arg =
  Arg.(
    value & opt float dflt.Regress.max_wirelength_pct
    & info [ "max-wirelength-pct" ] ~docv:"PCT"
        ~doc:"Allowed routed-wirelength increase in percent.")

let wns_margin_arg =
  Arg.(
    value & opt float dflt.Regress.wns_margin_ps
    & info [ "wns-margin-ps" ] ~docv:"PS"
        ~doc:"Allowed worst-negative-slack worsening in picoseconds.")

let max_drc_arg =
  Arg.(
    value & opt int dflt.Regress.max_extra_drc
    & info [ "max-drc" ] ~docv:"N" ~doc:"Allowed new DRC violations.")

let report_cmd =
  let doc = "summarize a run ledger (one row per recorded run)" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report_ledger $ compare_ledger_arg)

let compare_cmd =
  let doc =
    "diff the ledger's last run against a baseline and exit non-zero on regression"
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const compare_ledger $ compare_ledger_arg $ against_arg $ max_wall_pct_arg
      $ max_step_pct_arg $ wall_floor_arg $ max_cells_pct_arg $ max_area_pct_arg
      $ max_wirelength_pct_arg $ wns_margin_arg $ max_drc_arg)

(* {1 Campaign batch runs} *)

(* Per-job artifact resume prediction for --dry-run: the step the flow
   would resume at, by the same consecutive-hit rule the replay uses. *)
let batch_artifact_depth store (j : Manifest.job) =
  let netlist, cfg = Sched.elaborate j in
  Artifact.warm_prefix ~store ~netlist ~cfg ~inject:j.Manifest.inject
    ~fault_seed:j.Manifest.fault_seed ~retries:j.Manifest.retries

let run_batch manifest_path jobs_opt no_cache cache_dir cache_max artifact_dir
    artifact_max dry_run max_requeues
    trace_path metrics_path prom_path ledger_path summary_path =
  let manifest =
    match Manifest.load ~path:manifest_path with
    | m -> m
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
    | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let cache =
    if no_cache then None else Some (Cache.create ~max_entries:cache_max ~dir:cache_dir ())
  in
  let artifacts =
    Option.map (fun dir -> Astore.create ~max_entries:artifact_max ~dir ()) artifact_dir
  in
  let workers = Option.value jobs_opt ~default:(Sched.default_workers ()) in
  if workers < 1 then begin
    Printf.eprintf "--jobs must be >= 1, got %d\n" workers;
    exit 2
  end;
  let njobs = List.length manifest.Manifest.jobs in
  if dry_run then begin
    Printf.printf "campaign %s: %d job%s on %d worker%s, cache %s, artifacts %s\n"
      manifest_path njobs
      (if njobs = 1 then "" else "s")
      workers
      (if workers = 1 then "" else "s")
      (match cache with
      | Some _ -> Printf.sprintf "on (%s, max %d entries)" cache_dir cache_max
      | None -> "off")
      (match artifact_dir with
      | Some dir -> Printf.sprintf "on (%s, max %d entries)" dir artifact_max
      | None -> "off");
    (* three-way prediction: a whole-job cache hit costs no flow at all;
       otherwise the artifact store may let the flow resume mid-template;
       otherwise it runs cold *)
    let n_steps = List.length Flow.stored_step_names in
    let predict (j : Manifest.job) =
      match cache with
      | Some c when Cache.probe c (Server.job_key j) -> "hit "
      | _ -> (
        match artifacts with
        | None -> if cache = None then "run " else "miss"
        | Some store -> (
          match batch_artifact_depth store j with
          | 0 -> "miss"
          | d when d >= n_steps -> "replay"
          | d -> Printf.sprintf "resume@%s" (List.nth Flow.stored_step_names d)))
    in
    let predictions = List.map predict manifest.Manifest.jobs in
    List.iter2
      (fun prediction (j : Manifest.job) ->
        Printf.printf "  %-6s  %s\n" prediction (Manifest.job_summary j))
      predictions manifest.Manifest.jobs;
    let count p = List.length (List.filter (fun x -> x = p) predictions) in
    let hits = count "hit " in
    let resumes =
      List.length
        (List.filter
           (fun p -> p = "replay" || String.length p > 7 && String.sub p 0 7 = "resume@")
           predictions)
    in
    Printf.printf
      "predicted: %d cache hit%s, %d warm resume%s, %d flow run%s (nothing executed)\n"
      hits
      (if hits = 1 then "" else "s")
      resumes
      (if resumes = 1 then "" else "s")
      (njobs - hits)
      (if njobs - hits = 1 then "" else "s")
  end
  else begin
    let _collector =
      setup_telemetry ?trace:trace_path ?metrics:metrics_path ?metrics_text:prom_path
        ~need_collector:false ()
    in
    (* Interrupt = drain, not abort: workers finish their in-flight
       jobs, undispatched ones come back cancelled, and the ledger /
       summary / telemetry exports below (and the at_exit hooks) still
       run. An Atomic because the stop hook is polled from worker
       domains. *)
    let interrupted = Atomic.make false in
    let previous =
      List.map
        (fun signal ->
          ( signal,
            Sys.signal signal
              (Sys.Signal_handle
                 (fun _ ->
                   if Atomic.exchange interrupted true then exit 130
                   else prerr_endline "interrupt: draining workers (again to kill)")) ))
        [ Sys.sigint; Sys.sigterm ]
    in
    let results, summary =
      Sched.run ~workers ?cache ?artifacts ~max_requeues
        ~stop:(fun () -> Atomic.get interrupted)
        manifest
    in
    List.iter (fun (signal, behavior) -> Sys.set_signal signal behavior) previous;
    List.iter
      (fun (r : Sched.job_result) ->
        Printf.printf "  %-5s w%d  %s  -> %s\n"
          (if r.Sched.from_cache then "hit" else "run")
          r.Sched.worker
          (Manifest.job_summary r.Sched.job)
          r.Sched.verdict)
      results;
    (* ledger records in manifest order, so report/compare see a stable
       sequence regardless of which worker finished first *)
    Option.iter
      (fun path ->
        List.iter (fun (r : Sched.job_result) -> Runlog.append ~path r.Sched.record) results)
      ledger_path;
    Option.iter
      (fun path -> Jsonout.write_file ~path (Sched.summary_json summary))
      summary_path;
    Format.printf "%a" Sched.pp_summary summary;
    if Atomic.get interrupted then exit 130;
    if summary.Sched.failed > 0 then exit 5
  end

let manifest_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MANIFEST"
        ~doc:
          "Campaign manifest: one 'DESIGN key=value ...' job per line plus optional \
           'tenant NAME weight=W' fair-share declarations ('#' comments).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains to run jobs on (default: the machine's recommended domain \
           count, capped at 16).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the content-addressed result cache.")

let cache_dir_arg =
  Arg.(
    value & opt string Cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory.")

let cache_max_arg =
  Arg.(
    value & opt int Cache.default_max_entries
    & info [ "cache-max" ] ~docv:"N"
        ~doc:"Cache entry cap; least-recently-used entries beyond it are evicted.")

let dry_run_arg =
  Arg.(
    value & flag
    & info [ "dry-run" ]
        ~doc:
          "Resolve and print the job list with per-job cache-hit predictions, then \
           exit without running anything.")

let max_requeues_arg =
  Arg.(
    value & opt int 2
    & info [ "max-requeues" ] ~docv:"N"
        ~doc:
          "How many times a job whose worker crashed (the sched.worker fault site) is \
           requeued before it is marked failed.")

let summary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary" ] ~docv:"PATH" ~doc:"Write the campaign summary as JSON.")

let batch_cmd =
  let doc = "run a multi-tenant campaign manifest on parallel workers" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs every job of a campaign manifest through the guarded flow on a pool of \
         parallel worker domains, dispatching fairly across tenants (stride \
         scheduling over the declared weights) and replaying identical jobs from a \
         content-addressed result cache. Results, PPA, and ledger records are \
         independent of the worker count; exit status 5 means at least one job \
         failed.";
    ]
  in
  Cmd.v
    (Cmd.info "batch" ~doc ~man)
    Term.(
      const run_batch $ manifest_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg
      $ cache_max_arg $ artifact_dir_arg $ artifact_max_arg $ dry_run_arg
      $ max_requeues_arg $ trace_arg $ metrics_arg
      $ prom_arg $ ledger_arg $ summary_arg)

(* {1 Service client: submit / status / result}

   Thin wrappers over [Educhip_serve.Client] against a running
   [eduserved]. Exit codes: 0 ok, 1 transport/unexpected, 4 job failed
   (submit --wait only), 6 request rejected by the service. *)

let default_socket = "/tmp/eduserved.sock"

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the eduserved daemon.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Connect over TCP instead of the Unix socket ([:PORT] = localhost).")

let service_client ?connect_timeout_ms ?read_timeout_ms socket connect =
  let addr = Option.value connect ~default:socket in
  match Client.connect ?connect_timeout_ms ?read_timeout_ms addr with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot connect to %s: %s (is eduserved running?)\n" addr
      (Unix.error_message e);
    exit 1
  | exception Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let print_rejection reason retry_after_ms =
  Printf.eprintf "rejected: %s%s%s\n"
    (Wire.reject_reason_name reason)
    (match reason with
    | Wire.Bad_request msg | Wire.Unknown_id msg -> Printf.sprintf " (%s)" msg
    | _ -> "")
    (match retry_after_ms with
    | Some ms -> Printf.sprintf ", retry in %.0f ms" ms
    | None -> "")

let print_job_result ~id ~verdict ~from_cache ~exec_ms ~wait_ms ~(ppa : Flow.ppa option) =
  Printf.printf "%s: %s (%s, exec %.1f ms, queue wait %.1f ms)\n" id verdict
    (if from_cache then "cache hit" else "executed")
    exec_ms wait_ms;
  Option.iter
    (fun (p : Flow.ppa) ->
      Printf.printf "  %d cells, %.0f um2, fmax %.1f MHz, wns %.0f ps, %.1f uW\n"
        p.Flow.cells p.Flow.area_um2 p.Flow.fmax_mhz p.Flow.wns_ps p.Flow.total_power_uw)
    ppa

let run_submit socket connect design tenant preset node clock_ps priority seed retries
    inject deadline_ms wait_flag trace_id trace_out idempotency_key auto_retry
    retry_base_ms retry_seed connect_timeout_ms read_timeout_ms =
  (* --trace-out needs the finished job's server-side events, so it
     implies --wait; --trace-id alone just tags the submission. *)
  let trace =
    match (trace_id, trace_out) with
    | None, None -> None
    | Some id, _ -> (
      match Tracectx.make id with
      | ctx -> Some ctx
      | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
    | None, Some _ -> Some (Tracectx.generate ())
  in
  let wait_flag = wait_flag || trace_out <> None in
  let addr = Option.value connect ~default:socket in
  let idempotency_key =
    match idempotency_key with
    | Some _ as k -> k
    | None ->
      if auto_retry > 0 then
        (* retrying without a key risks running the job twice; mint one.
           This is client-side identity, not part of the deterministic
           result, so wall clock + pid is fine here. *)
        Some
          (Printf.sprintf "eduflow-%d-%.0f" (Unix.getpid ())
             (Unix.gettimeofday () *. 1e6))
      else None
  in
  let spec =
    {
      Wire.design;
      tenant;
      preset;
      node;
      clock_ps;
      priority;
      fault_seed = seed;
      retries;
      inject;
      deadline_ms;
      idempotency_key;
      trace;
      extra = [];
    }
  in
  let submit_start = Mclock.now_ms () in
  let c, submitted =
    if auto_retry > 0 then begin
      let policy =
        {
          Client.default_retry_policy with
          Client.attempts = auto_retry;
          base_ms = retry_base_ms;
          seed = retry_seed;
        }
      in
      match
        Client.submit_with_retry ~policy
          ~connect:(fun () ->
            Client.connect ?connect_timeout_ms ?read_timeout_ms addr)
          spec
      with
      | Ok (c, resp) -> (c, Ok resp)
      | Error msg ->
        Printf.eprintf "submit failed after %d attempt(s): %s\n" (auto_retry + 1) msg;
        exit 1
      | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    end
    else
      let c = service_client ?connect_timeout_ms ?read_timeout_ms socket connect in
      (c, Client.submit c spec)
  in
  match submitted with
  | Error msg ->
    Printf.eprintf "submit failed: %s\n" msg;
    exit 1
  | Ok (Wire.Rejected { reason; retry_after_ms }) ->
    print_rejection reason retry_after_ms;
    exit 6
  | Ok (Wire.Accepted { id; tier; cached; duplicate }) ->
    let submit_stop = Mclock.now_ms () in
    Printf.printf "accepted %s (tier %s)%s%s\n" id tier
      (if duplicate then " -- duplicate key, original job returned" else "")
      (if cached then " -- served from cache" else "");
    Option.iter
      (fun ctx -> Printf.printf "trace id %s\n" (Tracectx.trace_id ctx))
      trace;
    if wait_flag then begin
      match Client.await c id with
      | Ok (Wire.Job_result { verdict; from_cache; exec_ms; wait_ms; ppa; trace_events; _ })
        ->
        let wait_stop = Mclock.now_ms () in
        print_job_result ~id ~verdict ~from_cache ~exec_ms ~wait_ms ~ppa;
        (match (trace, trace_out) with
        | Some ctx, Some path ->
          (* stitch: the client's two events plus everything the server
             recorded, one timeline (same monotonic clock) *)
          let client_events =
            [
              Tracectx.event ~name:"client.submit" ~cat:"client"
                ~tid:Tracectx.tid_client
                ~args:[ ("design", Obs.Str design); ("tenant", Obs.Str tenant) ]
                ~start_ms:submit_start ~stop_ms:submit_stop ctx;
              Tracectx.event ~name:"client.wait" ~cat:"client"
                ~tid:Tracectx.tid_client
                ~args:[ ("job", Obs.Str id) ]
                ~start_ms:submit_stop ~stop_ms:wait_stop ctx;
            ]
          in
          Tracectx.write_chrome ~path (client_events @ trace_events);
          Printf.printf "trace (%d events) written to %s\n"
            (List.length client_events + List.length trace_events)
            path
        | _ -> ());
        Client.close c;
        if Sched.is_failed verdict then exit 4
      | Ok (Wire.Rejected { reason; retry_after_ms }) ->
        print_rejection reason retry_after_ms;
        exit 6
      | Ok _ ->
        Printf.eprintf "unexpected response while waiting for %s\n" id;
        exit 1
      | Error msg ->
        Printf.eprintf "error while waiting for %s: %s\n" id msg;
        exit 1
    end
    else Client.close c
  | Ok _ ->
    Printf.eprintf "unexpected response to submit\n";
    exit 1

let run_status socket connect id =
  let c = service_client socket connect in
  match Client.request c (Wire.Status id) with
  | Ok (Wire.Job_status { id; state; verdict }) ->
    Printf.printf "%s: %s%s\n" id (Wire.state_name state)
      (match verdict with Some v -> " -> " ^ v | None -> "");
    Client.close c
  | Ok (Wire.Rejected { reason; retry_after_ms }) ->
    print_rejection reason retry_after_ms;
    exit 6
  | Ok _ ->
    Printf.eprintf "unexpected response to status\n";
    exit 1
  | Error msg ->
    Printf.eprintf "status failed: %s\n" msg;
    exit 1

let run_result socket connect id wait_flag json_path trace_out =
  let c = service_client socket connect in
  let outcome =
    if wait_flag then Client.await c id else Client.request c (Wire.Result id)
  in
  match outcome with
  | Ok
      (Wire.Job_result
        { id; verdict; from_cache; exec_ms; wait_ms; ppa; record; trace_events }) ->
    print_job_result ~id ~verdict ~from_cache ~exec_ms ~wait_ms ~ppa;
    Option.iter
      (fun path ->
        Jsonout.write_file ~path (Runlog.to_json record);
        Printf.printf "ledger record written to %s\n" path)
      json_path;
    Option.iter
      (fun path ->
        if trace_events = [] then
          Printf.eprintf
            "no trace events for %s (submit it with --trace-id to trace it)\n" id
        else begin
          Tracectx.write_chrome ~path trace_events;
          Printf.printf "trace (%d events) written to %s\n" (List.length trace_events)
            path
        end)
      trace_out;
    Client.close c;
    if Sched.is_failed verdict then exit 4
  | Ok (Wire.Job_status { id; state; _ }) ->
    Printf.printf "%s: %s (no result yet; --wait to block)\n" id (Wire.state_name state);
    Client.close c
  | Ok (Wire.Rejected { reason; retry_after_ms }) ->
    print_rejection reason retry_after_ms;
    exit 6
  | Ok _ ->
    Printf.eprintf "unexpected response to result\n";
    exit 1
  | Error msg ->
    Printf.eprintf "result failed: %s\n" msg;
    exit 1

(* {2 eduflow top: live operator dashboard} *)

let pct x = 100.0 *. Float.max 0.0 (Float.min 1.0 x)

let budget_bar frac =
  let width = 10 in
  let filled = int_of_float (Float.round (float_of_int width *. Float.max 0.0 (Float.min 1.0 frac))) in
  String.concat ""
    [ String.make filled '#'; String.make (width - filled) '.' ]

(* ASCII sparkline over the newest [width] samples of a series: nine
   brightness levels, low to high *)
let spark_glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let sparkline values =
  match values with
  | [] -> ""
  | vs ->
    let lo = List.fold_left Float.min Float.infinity vs in
    let hi = List.fold_left Float.max Float.neg_infinity vs in
    let span = hi -. lo in
    String.concat ""
      (List.map
         (fun v ->
           let i =
             if span <= 0.0 then 0
             else int_of_float (Float.round ((v -. lo) /. span *. 8.0))
           in
           String.make 1 spark_glyphs.(max 0 (min 8 i)))
         vs)

(* the pane reads one scrape target: its last reports for the tables and
   its series for throughput and the trends *)
let render_top scraper target ~now_ms ~interval ~(alerts : Rules.instance list option) =
  let db = Scrape.tsdb scraper in
  let target_labels = [ ("target", target) ] in
  (* sparkline over the newest 16 samples of one of the target's series *)
  let trend ?(labels = []) name =
    match Tsdb.find db ~labels:(target_labels @ labels) name with
    | None -> ""
    | Some s ->
      let vs = List.map snd (Tsdb.samples s) in
      let skip = max 0 (List.length vs - 16) in
      sparkline (List.filteri (fun i _ -> i >= skip) vs)
  in
  match Scrape.last_reports scraper target with
  | Some
      ( Wire.Health_report { uptime_ms; queue_depth; running; completed; failed; workers; _ },
        Wire.Stats_report { rejects; tenants; slos; _ } ) ->
    (* one definition of throughput: the Tsdb rate of the completed
       counter over the last few polls *)
    let throughput =
      match Tsdb.find db ~labels:target_labels "health.completed" with
      | Some s ->
        Option.value
          (Tsdb.rate s ~window_ms:(5.0 *. interval *. 1000.0) ~now_ms)
          ~default:0.0
      | None -> 0.0
    in
    Printf.printf "eduserved — up %.0f s, %d workers | queue %d, running %d | done %d, failed %d | %.2f jobs/s\n"
      (uptime_ms /. 1000.0) workers queue_depth running completed failed throughput;
    Printf.printf "trend: done [%s]  queue [%s]  rejects [%s]\n"
      (trend "health.completed")
      (trend "health.queue_depth")
      (trend ~labels:[ ("reason", "rate_limited") ] "stats.rejects");
    (match rejects with
    | [] -> Printf.printf "rejects: none\n"
    | rs ->
      Printf.printf "rejects: %s\n"
        (String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s %d" r n) rs)));
    print_newline ();
    let tenant_table =
      Table.create ~title:"Tenants"
        ~columns:
          [
            ("tenant", Table.Left);
            ("tier", Table.Left);
            ("inflight", Table.Right);
            ("done", Table.Right);
            ("failed", Table.Right);
            ("p50 ms", Table.Right);
            ("p99 ms", Table.Right);
          ]
    in
    List.iter
      (fun (t : Wire.tenant_stats) ->
        Table.add_row tenant_table
          [
            t.Wire.tenant;
            t.Wire.tier;
            Table.cell_int t.Wire.inflight;
            Table.cell_int t.Wire.completed_n;
            Table.cell_int t.Wire.failed_n;
            Table.cell_float ~decimals:1 t.Wire.p50_ms;
            Table.cell_float ~decimals:1 t.Wire.p99_ms;
          ])
      tenants;
    if tenants <> [] then Printf.printf "%s\n" (Table.render tenant_table)
    else Printf.printf "no completed jobs yet\n\n";
    let slo_table =
      Table.create ~title:"SLO error budgets"
        ~columns:
          [
            ("tier", Table.Left);
            ("target p99", Table.Right);
            ("p99 ms", Table.Right);
            ("ok %", Table.Right);
            ("samples", Table.Right);
            ("budget", Table.Left);
            ("burn", Table.Right);
            ("burn trend", Table.Left);
          ]
    in
    List.iter
      (fun (r : Slo.report) ->
        let budget = Float.min r.Slo.latency_budget r.Slo.success_budget in
        Table.add_row slo_table
          [
            r.Slo.tier;
            Table.cell_float ~decimals:0 r.Slo.objective.Slo.p99_ms;
            Table.cell_float ~decimals:1 r.Slo.p99_ms;
            Table.cell_float ~decimals:1 (pct r.Slo.ok_rate);
            Table.cell_int r.Slo.samples;
            Printf.sprintf "%s %3.0f%%" (budget_bar budget) (pct budget);
            Table.cell_float ~decimals:2 r.Slo.burn_rate;
            trend ~labels:[ ("tier", r.Slo.tier) ] "slo.burn_rate";
          ])
      slos;
    Printf.printf "%s" (Table.render slo_table);
    (match alerts with
    | None -> ()
    | Some [] -> Printf.printf "\nalerts: none pending or firing\n"
    | Some insts ->
      Printf.printf "\nAlerts\n";
      (* every series here carries the one target's label: not shown *)
      List.iter
        (fun (i : Rules.instance) ->
          Printf.printf "  %-8s %s%s  value %.3g %s %.3g  [%s]\n"
            (String.uppercase_ascii (Alertlog.state_name i.Rules.inst_state))
            i.Rules.inst_rule.Rules.rule_name
            (Tsdb.show_labels (List.remove_assoc "target" i.Rules.inst_labels))
            i.Rules.last_value
            (Rules.op_name i.Rules.inst_rule.Rules.op)
            i.Rules.inst_rule.Rules.threshold i.Rules.inst_rule.Rules.severity)
        insts);
    flush_stdout ()
  | _ -> ()

(* the rule engine of top and mon: no --rules is an empty rule set *)
let rules_engine_or_exit rules_path =
  match Option.fold ~none:[] ~some:(fun path -> Rules.load ~path) rules_path with
  | rules -> Rules.create rules
  | exception (Invalid_argument msg | Sys_error msg) ->
    Printf.eprintf "%s\n" msg;
    exit 2

(* top's target, and mon's when no --target is given *)
let default_target socket connect =
  { Scrape.target_name = "default"; addr = Option.value connect ~default:socket }

let firing engine =
  List.filter (fun (i : Rules.instance) -> i.Rules.inst_state = Alertlog.Firing)
    (Rules.active engine)

let run_top socket connect interval once rules_path alert_log =
  let target = default_target socket connect in
  let engine = rules_engine_or_exit rules_path in
  (* named as [mon]'s default target, so one rules file selects the same
     series in both; a bounded connect: a dead daemon must fail the first
     poll with a clear message and a non-zero exit, not hang or render an
     empty dashboard *)
  let scraper =
    Scrape.create ~connect_timeout_ms:3000.0 ~read_timeout_ms:10_000.0 [ target ]
  in
  let rec loop tick =
    let now_ms = Mclock.now_ms () in
    match Scrape.step ?alert_log scraper engine ~now_ms ~tick with
    | [ { Scrape.ok = true; _ } ], _ ->
      if not once then print_string "\027[H\027[2J";
      render_top scraper target.Scrape.target_name ~now_ms ~interval
        ~alerts:(Option.map (fun _ -> Rules.active engine) rules_path);
      if once then Scrape.close scraper
      else begin
        Unix.sleepf interval;
        loop (tick + 1)
      end
    | results, _ ->
      let error =
        String.concat "; " (List.filter_map (fun r -> r.Scrape.error) results)
      in
      if tick = 0 then
        Printf.eprintf "first poll failed: %s (is eduserved running at %s?)\n" error
          target.Scrape.addr
      else Printf.eprintf "poll failed: %s\n" error;
      exit 1
  in
  loop 0

(* {2 eduflow mon: multi-target scraper + alert engine} *)

let run_mon socket connect target_specs rules_path interval ticks alert_log history
    staleness_s =
  let targets =
    match target_specs with
    | [] -> [ default_target socket connect ]
    | specs -> (
      match List.map Scrape.target_of_spec specs with
      | targets -> targets
      | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
  in
  let engine = rules_engine_or_exit rules_path in
  let scraper =
    match Scrape.create targets with
    | s -> s
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let db = Scrape.tsdb scraper in
  let staleness_ms = staleness_s *. 1000.0 in
  let stop = ref false in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
     Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
   with Invalid_argument _ | Sys_error _ -> ());
  let tick = ref 0 in
  while (not !stop) && (ticks = 0 || !tick < ticks) do
    let now = Mclock.now_ms () in
    let results, entries = Scrape.step ?alert_log scraper engine ~now_ms:now ~tick:!tick in
    let up_n = List.length (List.filter (fun r -> r.Scrape.ok) results) in
    let samples = List.fold_left (fun acc r -> acc + r.Scrape.samples) 0 results in
    Printf.printf "tick %d: %d/%d targets up, %d samples, %d firing\n" !tick up_n
      (List.length results) samples (List.length (firing engine));
    List.iter
      (fun (r : Scrape.tick_result) ->
        if not r.Scrape.ok then
          Printf.printf "  target %s DOWN: %s%s\n" r.Scrape.target
            (Option.value r.Scrape.error ~default:"scrape failed")
            (match Scrape.staleness_ms scraper ~now_ms:now r.Scrape.target with
            | Some age when age > staleness_ms ->
              Printf.sprintf " (stale %.0f ms > window %.0f ms)" age staleness_ms
            | _ -> ""))
      results;
    List.iter
      (fun (e : Alertlog.entry) ->
        Printf.printf "  alert %s%s -> %s (value %.4g, threshold %.4g)\n"
          e.Alertlog.rule (Tsdb.show_labels e.Alertlog.labels)
          (Alertlog.state_name e.Alertlog.state)
          e.Alertlog.value e.Alertlog.threshold)
      entries;
    flush_stdout ();
    incr tick;
    if (not !stop) && (ticks = 0 || !tick < ticks) then Unix.sleepf interval
  done;
  Scrape.close scraper;
  Option.iter
    (fun path ->
      Jsonout.write_file ~path (Tsdb.to_json db);
      Printf.printf "history (%d series) written to %s\n" (List.length (Tsdb.series_list db))
        path)
    history;
  match firing engine with
  | [] -> ()
  | still ->
    Printf.printf "%d alert(s) still firing\n" (List.length still);
    exit 3

(* {2 eduflow alerts: render an alert log} *)

let run_alerts log_path history_n check =
  if not (Sys.file_exists log_path) then begin
    Printf.eprintf "no alert log at %s\n" log_path;
    exit 1
  end;
  let entries = Alertlog.load ~path:log_path in
  if entries = [] then begin
    Printf.printf "%s: no alert transitions\n" log_path;
    exit 0
  end;
  (* replay: the newest transition per rule x label-set is its state *)
  let latest = Hashtbl.create 16 in
  List.iter
    (fun (e : Alertlog.entry) -> Hashtbl.replace latest (e.Alertlog.rule, e.Alertlog.labels) e)
    entries;
  let current = Hashtbl.fold (fun _ e acc -> e :: acc) latest [] in
  let current =
    List.sort
      (fun (a : Alertlog.entry) (b : Alertlog.entry) ->
        compare (a.Alertlog.rule, a.Alertlog.labels) (b.Alertlog.rule, b.Alertlog.labels))
      current
  in
  let active =
    List.filter (fun (e : Alertlog.entry) -> e.Alertlog.state <> Alertlog.Resolved) current
  in
  let firing =
    List.filter (fun (e : Alertlog.entry) -> e.Alertlog.state = Alertlog.Firing) active
  in
  Printf.printf "%s: %d transition(s), %d instance(s), %d active (%d firing)\n\n" log_path
    (List.length entries) (List.length current) (List.length active) (List.length firing);
  let table =
    Table.create ~title:"Alert instances"
      ~columns:
        [
          ("rule", Table.Left);
          ("labels", Table.Left);
          ("state", Table.Left);
          ("since tick", Table.Right);
          ("value", Table.Right);
          ("threshold", Table.Right);
          ("severity", Table.Left);
        ]
  in
  List.iter
    (fun (e : Alertlog.entry) ->
      Table.add_row table
        [
          e.Alertlog.rule;
          Tsdb.show_labels ~cell:true e.Alertlog.labels;
          Alertlog.state_name e.Alertlog.state;
          Table.cell_int e.Alertlog.tick;
          Table.cell_float ~decimals:3 e.Alertlog.value;
          Table.cell_float ~decimals:3 e.Alertlog.threshold;
          e.Alertlog.severity;
        ])
    current;
  Printf.printf "%s\n" (Table.render table);
  let recent =
    let n = List.length entries in
    List.filteri (fun i _ -> i >= n - history_n) entries
  in
  Printf.printf "Recent transitions (last %d)\n" (List.length recent);
  List.iter
    (fun (e : Alertlog.entry) ->
      Printf.printf "  tick %-4d %-10s %s%s (value %.4g vs %.4g)\n" e.Alertlog.tick
        (Alertlog.state_name e.Alertlog.state)
        e.Alertlog.rule
        (Tsdb.show_labels e.Alertlog.labels)
        e.Alertlog.value e.Alertlog.threshold)
    recent;
  if check && firing <> [] then exit 3

let submit_design_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DESIGN" ~doc:"Design to submit (see $(b,eduflow list)).")

let tenant_arg =
  Arg.(
    value & opt string "default"
    & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant the job is billed to.")

let submit_priority_arg =
  Arg.(
    value & opt int 1
    & info [ "priority" ] ~docv:"N"
        ~doc:"Dispatch priority within the tenant (>= 1, higher first).")

let submit_retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N" ~doc:"Guard retry budget (default: server's).")

let submit_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Queue-wait budget: if the job is still undispatched after this many \
           milliseconds it fails with deadline_exceeded instead of running.")

let wait_arg =
  Arg.(
    value & flag
    & info [ "wait" ] ~doc:"Block until the job finishes and print its result.")

let idempotency_key_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "idempotency-key" ] ~docv:"KEY"
        ~doc:
          "Client-chosen dedup token: resubmitting with the same $(docv) returns \
           the original job id instead of running twice -- even across a daemon \
           restart when eduserved runs with --journal. Generated automatically \
           when $(b,--auto-retry) is used without one.")

let auto_retry_arg =
  Arg.(
    value & opt int 0
    & info [ "auto-retry" ] ~docv:"N"
        ~doc:
          "Retry the submission up to $(docv) times on connection loss, with \
           seeded capped exponential backoff (distinct from $(b,--retries), the \
           server-side flow guard budget).")

let retry_base_arg =
  Arg.(
    value & opt float 50.0
    & info [ "retry-base-ms" ] ~docv:"MS"
        ~doc:"First retry's nominal backoff delay (doubles per attempt, capped).")

let retry_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "retry-seed" ] ~docv:"N"
        ~doc:"Seed of the deterministic backoff jitter stream.")

let connect_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "connect-timeout-ms" ] ~docv:"MS"
        ~doc:"Give up connecting after $(docv) milliseconds (default: OS timeout).")

let client_read_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "read-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Treat a response not arriving within $(docv) milliseconds as a \
           transport error (default: wait forever).")

let job_id_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JOB_ID" ~doc:"Job id returned by $(b,eduflow submit).")

let result_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH" ~doc:"Write the job's ledger record as JSON.")

let trace_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-id" ] ~docv:"ID"
        ~doc:
          "Tag the submission with a request trace id (1-64 chars of \
           [a-zA-Z0-9._-]); the server records admission, queue-wait, and every \
           flow step against it. Generated automatically when only \
           $(b,--trace-out) is given.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write the stitched end-to-end Chrome trace-event JSON (open in Perfetto \
           or chrome://tracing). Implies $(b,--wait).")

let result_trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write the job's server-side trace events as Chrome trace-event JSON \
           (the job must have been submitted with a trace id).")

(* shared by top and mon: a poll is one scrape tick *)
let interval_arg =
  let positive interval =
    if interval <= 0.0 then begin
      Printf.eprintf "--interval must be positive, got %g\n" interval;
      exit 2
    end;
    interval
  in
  Term.(
    const positive
    $ Arg.(
        value & opt float 2.0
        & info [ "interval" ] ~docv:"SECONDS" ~doc:"Period between polls (scrape ticks)."))

let top_once_arg =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"Print a single snapshot and exit instead of refreshing the screen.")

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"FILE"
        ~doc:
          "Alert rules file (one $(b,alert) or $(b,slo-burn) directive per line); \
           evaluated against the in-process history every poll.")

let alert_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "alert-log" ] ~docv:"PATH"
        ~doc:"Append every alert state transition to this JSONL log.")

let mon_target_arg =
  Arg.(
    value & opt_all string []
    & info [ "target" ] ~docv:"NAME=ADDR"
        ~doc:
          "A daemon to scrape: socket path or HOST:PORT, tagged with NAME (series \
           carry a target=NAME label). Repeatable; default is one target named \
           $(i,default) at --socket/--connect.")

let mon_ticks_arg =
  Arg.(
    value & opt int 0
    & info [ "ticks" ] ~docv:"N"
        ~doc:"Stop after N scrape ticks (0 = run until interrupted).")

let mon_history_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"PATH"
        ~doc:"On exit, dump the retained time series as JSON to this file.")

let mon_staleness_arg =
  Arg.(
    value & opt float 5.0
    & info [ "staleness" ] ~docv:"SECONDS"
        ~doc:
          "Staleness window: a target not scraped successfully within this long \
           is reported down.")

let alerts_log_arg =
  Arg.(
    value & opt string "alerts.jsonl"
    & info [ "log" ] ~docv:"PATH" ~doc:"The JSONL alert log to render.")

let alerts_history_arg =
  Arg.(
    value & opt int 12
    & info [ "last" ] ~docv:"N" ~doc:"How many recent transitions to list.")

let alerts_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Exit 3 when any alert instance is currently firing (for scripts).")

let submit_cmd =
  let doc = "submit a flow job to a running eduserved daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Submits one job over the service wire protocol and prints the job id the \
         daemon assigned. Admission control may reject the submission (rate limit, \
         inflight quota, queue full, draining) -- rejections are typed, exit status \
         6, and safe to retry after the indicated delay. With $(b,--wait), blocks \
         until the job finishes (exit 4 if its verdict is a failure).";
    ]
  in
  Cmd.v
    (Cmd.info "submit" ~doc ~man)
    Term.(
      const run_submit $ socket_arg $ connect_arg $ submit_design_arg $ tenant_arg
      $ preset_arg $ node_arg $ clock_arg $ submit_priority_arg $ fault_seed_arg
      $ submit_retries_arg $ inject_arg $ submit_deadline_arg $ wait_arg
      $ trace_id_arg $ trace_out_arg $ idempotency_key_arg $ auto_retry_arg
      $ retry_base_arg $ retry_seed_arg $ connect_timeout_arg
      $ client_read_timeout_arg)

let status_cmd =
  let doc = "show a submitted job's state (queued | running | done | failed)" in
  Cmd.v
    (Cmd.info "status" ~doc)
    Term.(const run_status $ socket_arg $ connect_arg $ job_id_arg)

let result_cmd =
  let doc = "fetch a finished job's verdict, PPA, and ledger record" in
  Cmd.v
    (Cmd.info "result" ~doc)
    Term.(
      const run_result $ socket_arg $ connect_arg $ job_id_arg $ wait_arg
      $ result_json_arg $ result_trace_out_arg)

let top_cmd =
  let doc = "live dashboard of a running eduserved daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Scrapes the service as one $(b,eduflow mon) target named $(i,default) \
         (health, stats and metrics endpoints) and renders throughput, queue \
         depth, per-tenant inflight/latency percentiles, the reject breakdown, \
         and each tier's SLO error budget and burn rate. With $(b,--rules), \
         each poll also runs $(b,mon)'s rule step and shows an alerts pane. \
         Refreshes every $(b,--interval) seconds until interrupted; $(b,--once) \
         prints a single snapshot (useful in scripts and CI).";
    ]
  in
  Cmd.v
    (Cmd.info "top" ~doc ~man)
    Term.(
      const run_top $ socket_arg $ connect_arg $ interval_arg $ top_once_arg
      $ rules_arg $ alert_log_arg)

let mon_cmd =
  let doc = "scrape one or more eduserved daemons into time series and evaluate alerts" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Polls every --target's health, stats, and Prometheus metrics endpoints on \
         an interval, retaining the samples as per-target time series (ring \
         buffers, bounded memory). With $(b,--rules), evaluates declarative \
         threshold and SLO burn-rate alert rules against the history each tick — \
         transitions (pending, firing, resolved) are printed and appended to \
         $(b,--alert-log) as schema-versioned JSONL. $(b,--history) dumps the \
         retained series as JSON on exit. Exit status 3 when any alert is still \
         firing at exit.";
    ]
  in
  Cmd.v
    (Cmd.info "mon" ~doc ~man)
    Term.(
      const run_mon $ socket_arg $ connect_arg $ mon_target_arg $ rules_arg
      $ interval_arg $ mon_ticks_arg $ alert_log_arg $ mon_history_arg
      $ mon_staleness_arg)

let alerts_cmd =
  let doc = "render current and past alert state from a JSONL alert log" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays an alert log written by $(b,eduflow mon) (or $(b,eduflow top) \
         --alert-log): the newest transition of each rule x label-set instance is \
         its current state. Shows an instance table plus the most recent \
         transitions; $(b,--check) turns a firing alert into exit status 3.";
    ]
  in
  Cmd.v
    (Cmd.info "alerts" ~doc ~man)
    Term.(const run_alerts $ alerts_log_arg $ alerts_history_arg $ alerts_check_arg)

(* {1 Cluster administration: status / drain against an eduroute router} *)

let router_socket_arg =
  Arg.(
    value & opt string "/tmp/eduroute.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the eduroute router.")

let print_cluster_table (replicas : Wire.replica_info list) =
  Printf.printf "%-12s %-28s %-9s %7s %6s %5s %6s %5s\n" "REPLICA" "ADDR" "STATE"
    "ROUTED" "QUEUE" "RUN" "DONE" "FAIL";
  List.iter
    (fun (r : Wire.replica_info) ->
      let state =
        if r.Wire.r_removed then "removed"
        else if r.Wire.r_draining then "draining"
        else if r.Wire.r_up then "up"
        else "down"
      in
      Printf.printf "%-12s %-28s %-9s %7d %6d %5d %6d %5d\n" r.Wire.r_name
        r.Wire.r_addr state r.Wire.r_routed r.Wire.r_queue_depth r.Wire.r_running
        r.Wire.r_completed r.Wire.r_failed)
    replicas

let run_cluster_status socket connect =
  let c = service_client ~connect_timeout_ms:3000.0 socket connect in
  match Client.request c Wire.Cluster_status with
  | Ok (Wire.Cluster_report { replicas }) -> print_cluster_table replicas
  | Ok (Wire.Rejected { reason; retry_after_ms }) ->
    print_rejection reason retry_after_ms;
    Printf.eprintf "(cluster verbs need an eduroute router, not a bare eduserved)\n";
    exit 6
  | Ok other ->
    Printf.eprintf "unexpected response: %s\n" (Wire.encode_response other);
    exit 1
  | Error msg ->
    Printf.eprintf "cluster status failed: %s\n" msg;
    exit 1

let run_cluster_drain socket connect name =
  (* no read deadline: the router answers only once every in-flight job
     on the replica is terminal and stashed *)
  let c = service_client ~connect_timeout_ms:3000.0 socket connect in
  match Client.request c (Wire.Drain_replica name) with
  | Ok (Wire.Cluster_report { replicas }) ->
    Printf.printf "replica %s drained: jobs finished, results stashed, ring remapped\n"
      name;
    print_cluster_table replicas
  | Ok (Wire.Rejected { reason; retry_after_ms }) ->
    print_rejection reason retry_after_ms;
    exit 6
  | Ok other ->
    Printf.eprintf "unexpected response: %s\n" (Wire.encode_response other);
    exit 1
  | Error msg ->
    Printf.eprintf "drain failed: %s\n" msg;
    exit 1

let cluster_replica_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"REPLICA" ~doc:"Replica name from the cluster spec.")

let cluster_cmd =
  let doc = "inspect and administer an eduroute replica cluster" in
  let status =
    let doc = "show the router's membership table (liveness, routing counts)" in
    Cmd.v
      (Cmd.info "status" ~doc)
      Term.(const run_cluster_status $ router_socket_arg $ connect_arg)
  in
  let drain =
    let doc = "rolling-drain one replica: finish its jobs, remap its ring segment" in
    let man =
      [
        `S Manpage.s_description;
        `P
          "Asks the router to take $(b,REPLICA) out of service without losing a \
           job: new submissions immediately route to the ring successors, every \
           job already placed on the replica is waited to completion (terminal \
           results are stashed router-side and stay fetchable), then the replica \
           process itself is drained and its ring segment remapped. Blocks until \
           done; exit 6 if the router refuses (unknown name, already drained, or \
           the replica is unreachable and its jobs cannot be proven terminal).";
      ]
    in
    Cmd.v
      (Cmd.info "drain" ~doc ~man)
      Term.(const run_cluster_drain $ router_socket_arg $ connect_arg $ cluster_replica_arg)
  in
  Cmd.group (Cmd.info "cluster" ~doc) [ status; drain ]

let () =
  (* a served peer can vanish mid-request (daemon restart, drain); that
     must surface as a transport error on the one connection, not a
     process-killing SIGPIPE — the monitor in particular writes into
     persistent connections whose daemon may be gone *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let doc = "educhip RTL-to-GDSII flow driver" in
  let info = Cmd.info "eduflow" ~version:"1.0.0" ~doc in
  (* [run] is the default command: [eduflow counter --trace t.json] is
     shorthand for [eduflow run counter --trace t.json]. *)
  let argv =
    let argv = Sys.argv in
    let commands =
      [
        "run"; "list"; "nodes"; "fpga"; "report"; "compare"; "batch"; "submit";
        "status"; "result"; "top"; "mon"; "alerts"; "cluster";
      ]
    in
    if
      Array.length argv > 1
      && (not (String.length argv.(1) > 0 && argv.(1).[0] = '-'))
      && not (List.mem argv.(1) commands)
    then Array.append [| argv.(0); "run" |] (Array.sub argv 1 (Array.length argv - 1))
    else argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default:run_term info
          [
            run_cmd; list_cmd; nodes_cmd; fpga_cmd; report_cmd; compare_cmd; batch_cmd;
            submit_cmd; status_cmd; result_cmd; top_cmd; mon_cmd; alerts_cmd;
            cluster_cmd;
          ]))
