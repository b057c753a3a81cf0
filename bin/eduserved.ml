(* eduserved: the flow-as-a-service daemon.

   Examples:
     dune exec bin/eduserved.exe -- --socket /tmp/eduserved.sock
     dune exec bin/eduserved.exe -- --tcp 7080 --workers 4 --advanced uni-a
     dune exec bin/eduserved.exe -- --ledger served.jsonl --prom serve.prom

   SIGINT/SIGTERM drain the service: accepted jobs finish, new submits
   are refused with a typed `draining` rejection, then the daemon exits
   after flushing the ledger and any requested telemetry exports. *)

module Obs = Educhip_obs.Obs
module Slo = Educhip_obs.Slo
module Jsonout = Educhip_obs.Jsonout
module Fault = Educhip_fault.Fault
module Cache = Educhip_sched.Cache
module Astore = Educhip_artifact.Store
module Sched = Educhip_sched.Sched
module Ratelimit = Educhip_serve.Ratelimit
module Server = Educhip_serve.Server

open Cmdliner

let run socket tcp_port workers max_queue no_cache cache_dir cache_max artifact_dir
    artifact_max ledger
    journal default_deadline inject wire_fault_seed
    advanced_tenants basic_rate basic_burst basic_inflight
    advanced_rate advanced_burst advanced_inflight slo_basic_p99 slo_advanced_p99
    slo_success_rate slo_window trace_path metrics_path prom_path =
  if workers < 1 then begin
    Printf.eprintf "--workers must be >= 1, got %d\n" workers;
    exit 2
  end;
  if slo_window < 1 then begin
    Printf.eprintf "--slo-window must be >= 1, got %d\n" slo_window;
    exit 2
  end;
  (* install the export collector before Server.create so the server
     adopts it and the at_exit writers see the serve.* families; it keeps
     the served flows' span trees only when a trace is to be written *)
  ignore
    (Obs.export_on_exit ~spans:(trace_path <> None) ?trace:trace_path ?metrics:metrics_path
       ?metrics_text:prom_path ());
  let tweak (l : Ratelimit.limits) rate burst inflight =
    {
      l with
      Ratelimit.rate_per_s = Option.value rate ~default:l.Ratelimit.rate_per_s;
      burst = Option.value burst ~default:l.Ratelimit.burst;
      max_inflight = Option.value inflight ~default:l.Ratelimit.max_inflight;
    }
  in
  let cfg =
    {
      Server.workers;
      max_queue;
      basic = tweak Ratelimit.basic_defaults basic_rate basic_burst basic_inflight;
      advanced =
        tweak Ratelimit.advanced_defaults advanced_rate advanced_burst advanced_inflight;
      tiers = List.map (fun t -> (t, Ratelimit.Advanced)) advanced_tenants;
      cache =
        (if no_cache then None
         else Some (Cache.create ~max_entries:cache_max ~dir:cache_dir ()));
      artifacts =
        Option.map
          (fun dir -> Astore.create ~max_entries:artifact_max ~dir ())
          artifact_dir;
      ledger;
      journal;
      default_deadline_ms = default_deadline;
      slo =
        List.map
          (fun (tier, (o : Slo.objective)) ->
            let p99 =
              match tier with
              | "basic" -> Option.value slo_basic_p99 ~default:o.Slo.p99_ms
              | "advanced" -> Option.value slo_advanced_p99 ~default:o.Slo.p99_ms
              | _ -> o.Slo.p99_ms
            in
            let sr = Option.value slo_success_rate ~default:o.Slo.success_rate in
            (tier, { Slo.p99_ms = p99; success_rate = sr }))
          Slo.default_objectives;
      slo_window;
    }
  in
  let server =
    match Server.create cfg with
    | s -> s
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Server.request_drain server)))
    [ Sys.sigint; Sys.sigterm ];
  (* wire-level chaos: arm in this domain — connection threads run here
     and share its injector; worker domains never see it *)
  (match List.map Fault.arming_of_string inject with
  | [] -> ()
  | plan -> Fault.arm ~seed:wire_fault_seed plan
  | exception Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 2);
  (* replay before the socket opens: a client that reconnects right
     after restart already sees every pre-crash job terminal. The stats
     file is written first so the chaos harness can score a recovery
     even if the daemon is killed again moments later. *)
  (match Server.recover server with
  | None -> ()
  | Some stats ->
    (match journal with
    | Some jpath ->
      Jsonout.write_file ~path:(jpath ^ ".recovery.json")
        (Server.recovery_stats_json stats)
    | None -> ());
    Printf.printf
      "eduserved: journal recovered: %d restored, %d replayed (%d caught mid-run), \
       %d line(s) dropped, %.1f ms\n%!"
      stats.Server.restored_completed stats.Server.replayed
      stats.Server.started_incomplete stats.Server.dropped_lines
      stats.Server.recovery_wall_ms);
  let served =
    Educhip_serve.Listener.with_socket ~socket ~tcp:tcp_port (fun listen_fd where ->
        Printf.printf
          "eduserved: listening on %s (%d workers, queue bound %d, cache %s, artifacts %s)\n%!"
          where workers max_queue
          (match cfg.Server.cache with
          | Some _ -> Printf.sprintf "on (%s, max %d entries)" cache_dir cache_max
          | None -> "off")
          (match artifact_dir with
          | Some dir -> Printf.sprintf "on (%s, max %d entries)" dir artifact_max
          | None -> "off");
        Server.serve server listen_fd)
  in
  match served with
  | Ok () -> Printf.printf "eduserved: drained, shutting down\n%!"
  | Error msg ->
    Printf.eprintf "eduserved: %s\n" msg;
    exit 2

let socket_arg =
  Arg.(
    value & opt string "/tmp/eduserved.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Listen on TCP 127.0.0.1:$(docv) instead of the Unix socket.")

let workers_arg =
  Arg.(
    value & opt int (Sched.default_workers ())
    & info [ "workers"; "j" ] ~docv:"N"
        ~doc:"Worker domains executing admitted jobs.")

let max_queue_arg =
  Arg.(
    value & opt int Server.default_config.Server.max_queue
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission bound: submissions beyond $(docv) queued jobs are rejected \
           with the typed `overloaded` response (backpressure, not buffering).")

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

let artifact_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifact-dir" ] ~docv:"DIR"
        ~doc:
          "Enable the per-step incremental artifact store in $(docv): cold \
           submissions resume from the deepest warm prefix of stored step \
           artifacts. Replicas pointed at one directory share artifacts -- \
           structurally identical subdesigns from any tenant resume each \
           other's flows.")

let artifact_max_arg =
  Arg.(
    value & opt int Astore.default_max_entries
    & info [ "artifact-max" ] ~docv:"N"
        ~doc:
          "Artifact entry cap; least-recently-used entries beyond it are evicted.")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"PATH"
        ~doc:"Append one JSONL run record per completed job.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Write-ahead job journal: every admission is fsync'd to $(docv) before \
           it is acknowledged. On startup, unfinished entries are replayed \
           (recovery stats land in $(docv).recovery.json) so an acknowledged \
           submission survives kill -9.")

let inject_arg =
  Arg.(
    value & opt_all string []
    & info [ "inject" ] ~docv:"SITE:KIND[@N]"
        ~doc:
          "Arm a wire-level fault (repeatable): sites serve.accept, serve.read, \
           serve.write; kinds crash, hang, corrupt. For chaos drills against the \
           connection handling.")

let wire_fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "wire-fault-seed" ] ~docv:"N"
        ~doc:"Seed for the wire fault plan's RNG (reproducible chaos).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "default-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Queue-wait budget applied to submissions that carry no deadline of \
           their own.")

let advanced_arg =
  Arg.(
    value & opt_all string []
    & info [ "advanced" ] ~docv:"TENANT"
        ~doc:
          "Assign a tenant to the advanced tier (repeatable); everyone else is \
           basic. The paper's Recommendation 8 tiered hub access.")

let opt_float name doc =
  Arg.(value & opt (some float) None & info [ name ] ~docv:"X" ~doc)

let opt_int name doc = Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)

let basic_rate_arg = opt_float "basic-rate" "Basic tier: sustained submits per second."
let basic_burst_arg = opt_float "basic-burst" "Basic tier: token bucket capacity."

let basic_inflight_arg =
  opt_int "basic-inflight" "Basic tier: max queued+running jobs per tenant."

let advanced_rate_arg =
  opt_float "advanced-rate" "Advanced tier: sustained submits per second."

let advanced_burst_arg = opt_float "advanced-burst" "Advanced tier: token bucket capacity."

let advanced_inflight_arg =
  opt_int "advanced-inflight" "Advanced tier: max queued+running jobs per tenant."

let slo_basic_p99_arg =
  opt_float "slo-basic-p99"
    "Basic tier latency objective: target p99 in milliseconds (default 1000)."

let slo_advanced_p99_arg =
  opt_float "slo-advanced-p99"
    "Advanced tier latency objective: target p99 in milliseconds (default 500)."

let slo_success_rate_arg =
  opt_float "slo-success-rate"
    "Success-rate objective applied to both tiers, in [0,1] (defaults: basic 0.9, \
     advanced 0.95)."

let slo_window_arg =
  Arg.(
    value & opt int Server.default_config.Server.slo_window
    & info [ "slo-window" ] ~docv:"N"
        ~doc:
          "Completed requests per tier retained for SLO error-budget accounting \
           (served by the wire `stats` request and $(b,eduflow top)).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:"Write a Chrome trace_event JSON of served flows on shutdown.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH" ~doc:"Write the metrics registry as JSON on shutdown.")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"PATH"
        ~doc:
          "Write Prometheus text exposition on shutdown (the live equivalent is the \
           wire `metrics` request).")

let cmd =
  let doc = "flow-as-a-service daemon: admission control, tenant quotas, worker pool" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves flow jobs over newline-delimited JSON (Unix-domain socket or TCP). \
         Submissions pass tiered admission control -- per-tenant token buckets and \
         inflight quotas, plus a hard queue bound -- and admitted jobs run on a pool \
         of worker domains through the same executor as $(b,eduflow batch), so \
         served results are bit-identical to batch results. Warm submissions are \
         answered straight from the result cache without occupying a worker. \
         SIGINT/SIGTERM (or a wire `drain` request) drain gracefully.";
      `S Manpage.s_see_also;
      `P "$(b,eduflow submit), $(b,eduflow status), $(b,eduflow result).";
    ]
  in
  Cmd.v
    (Cmd.info "eduserved" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ socket_arg $ tcp_arg $ workers_arg $ max_queue_arg $ no_cache_arg
      $ cache_dir_arg $ cache_max_arg $ artifact_dir_arg $ artifact_max_arg
      $ ledger_arg $ journal_arg $ deadline_arg
      $ inject_arg $ wire_fault_seed_arg
      $ advanced_arg
      $ basic_rate_arg $ basic_burst_arg $ basic_inflight_arg $ advanced_rate_arg
      $ advanced_burst_arg $ advanced_inflight_arg $ slo_basic_p99_arg
      $ slo_advanced_p99_arg $ slo_success_rate_arg $ slo_window_arg $ trace_arg
      $ metrics_arg $ prom_arg)

let () =
  (* a client that disconnects while its response is in flight must cost
     only that connection, not the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  exit (Cmd.eval cmd)
