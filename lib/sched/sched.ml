module Flow = Educhip_flow.Flow
module Artifact = Educhip_artifact.Artifact
module Fault = Educhip_fault.Fault
module Guard = Educhip_fault.Guard
module Designs = Educhip_designs.Designs
module Pdk = Educhip_pdk.Pdk
module Obs = Educhip_obs.Obs
module Tracectx = Educhip_obs.Tracectx
module Runlog = Educhip_obs.Runlog
module Jsonout = Educhip_obs.Jsonout
module Mclock = Educhip_util.Mclock
module Stats = Educhip_util.Stats
module Table = Educhip_util.Table

let fault_site = "sched.worker"

let metric_names =
  [
    "sched.jobs_completed";
    "sched.jobs_failed";
    "sched.cache_hits";
    "sched.cache_misses";
    "sched.requeues";
  ]

type job_result = {
  job : Manifest.job;
  verdict : string;
  ppa : Flow.ppa option;
  record : Runlog.record;
  from_cache : bool;
  requeues : int;
  worker : int;
  exec_ms : float;
  wait_ms : float;
  trace_events : Tracectx.event list;  (* execution spans; [] when untraced *)
}

type tenant_stat = {
  tenant : string;
  tenant_jobs : int;
  tenant_failed : int;
  tenant_exec_ms : float;
  tenant_throughput : float;
}

type summary = {
  jobs : int;
  completed : int;
  failed : int;
  cache_hits : int;
  cache_misses : int;
  requeues : int;
  workers : int;
  makespan_ms : float;
  wait_p50_ms : float;
  wait_p99_ms : float;
  per_tenant : tenant_stat list;
}

let default_workers () = min 16 (Domain.recommended_domain_count ())

type shared = {
  mutex : Mutex.t;
  pool : Pool.t;
  results : job_result option array;  (* indexed by job.index *)
  waits : float option array;  (* campaign start -> first dispatch *)
  crash_counts : int array;  (* sched.worker injections per job so far *)
  inflight : (string, int) Hashtbl.t;  (* tenant -> dispatched, unfinished *)
  mutable depth_samples : float list;  (* queue depth at each dispatch *)
  mutable hits : int;
  mutable misses : int;
  mutable requeues : int;
  cache : Cache.t option;
  artifacts : Educhip_artifact.Store.t option;
  start_ms : float;
  max_requeues : int;
  stop : unit -> bool;
}

let is_failed verdict =
  String.length verdict >= 6 && String.sub verdict 0 6 = "failed"

let elaborate (job : Manifest.job) =
  let node = Pdk.find_node job.node in
  ( Designs.netlist (Designs.find job.design),
    Flow.config ~node ?clock_period_ps:job.clock_ps job.preset )

let result (job : Manifest.job) ~from_cache verdict ppa record =
  {
    job;
    verdict;
    ppa;
    record;
    from_cache;
    requeues = 0;
    worker = -1;
    exec_ms = 0.0;
    wait_ms = 0.0;
    trace_events = [];
  }

(* Deliberately never cached: why a job never reached (or never
   finished) its flow — a crash budget, a deadline, a cancellation — is
   scheduler state, not part of the job's content key. *)
let failed_result (job : Manifest.job) reason =
  let verdict = Printf.sprintf "failed(%s)" reason in
  result job ~from_cache:false verdict None
    (Runlog.make ~design:job.design ~node:job.node
       ~preset:(Flow.preset_name job.preset) ~verdict ~total_wall_ms:0.0
       ~injected:(List.map Fault.arming_to_string job.inject)
       ~fault_seed:job.fault_seed ~max_retries:job.retries ())

(* Run one job to a result in the calling domain, or signal a worker
   crash by raising Fault.Injected (fault_site, _) when
   [crashes_left > 0]. Shared by the campaign engine's workers and
   {!run_one} (the service daemon's entry point). *)
let exec_flow ?cache ?artifacts ~crashes_left (job : Manifest.job) =
  let netlist, cfg = elaborate job in
  let key =
    Option.map
      (fun _ ->
        Cache.job_key ~netlist ~cfg ~inject:job.inject ~fault_seed:job.fault_seed
          ~retries:job.retries)
      cache
  in
  let plan =
    job.inject
    @ (if crashes_left > 0 then [ Fault.arming ~count:1 fault_site Fault.Crash ] else [])
  in
  Fault.with_plan ~seed:job.fault_seed plan (fun () ->
      (* the worker "takes" the job here: a crash before this point
         would have left it queued, a crash after costs a requeue *)
      Fault.check fault_site;
      let cached =
        match (cache, key) with
        | Some cache, Some key -> Cache.lookup cache key
        | _ -> None
      in
      match cached with
      | Some (e : Cache.entry) -> result job ~from_cache:true e.verdict e.ppa e.record
      | None ->
        let policy = { Guard.default_policy with Guard.max_retries = job.retries } in
        (* the per-step artifact layer sits under the whole-job cache: a
           job-cache miss still resumes from the deepest warm prefix of
           stored step artifacts, and recomputed steps are stored for the
           next partially-changed job. Keys are derived from job.inject
           only — when crashes_left > 0 the extra sched.worker arming
           fires before this point, so the flow never runs with it. *)
        let memo =
          Option.map
            (fun store ->
              Artifact.memo ~store ~netlist ~cfg ~inject:job.inject
                ~fault_seed:job.fault_seed ~retries:job.retries)
            artifacts
        in
        let outcome = Flow.run_guarded ~policy ?memo netlist cfg in
        let verdict = Flow.verdict_to_string (Flow.outcome_verdict outcome) in
        let ppa =
          match outcome with
          | Flow.Completed r -> Some r.Flow.ppa
          | Flow.Aborted _ -> None
        in
        let record =
          Flow.ledger_record
            ~injected:(List.map Fault.arming_to_string job.inject)
            ~fault_seed:job.fault_seed ~max_retries:job.retries
            ~design:job.design ~node:job.node
            ~preset:(Flow.preset_name job.preset) outcome
        in
        (match (cache, key) with
        | Some cache, Some key -> Cache.store cache { Cache.key; verdict; ppa; record }
        | _ -> ());
        result job ~from_cache:false verdict ppa record)

let run_one ?cache ?artifacts ?(worker = 0) ?trace (job : Manifest.job) =
  let t0 = Mclock.now_ms () in
  (* Traced executions capture their spans in a private sub-collector so
     the request's events can be cut out cleanly, then merge it into the
     domain's installed collector (if any) so aggregate telemetry sees
     exactly what it would have without tracing. *)
  let exec () =
    match exec_flow ?cache ?artifacts ~crashes_left:0 job with
    | r -> r
    | exception exn -> failed_result job (Printexc.to_string exn)
  in
  let r, trace_events =
    match trace with
    | None -> (exec (), [])
    | Some ctx ->
      let outer = Obs.installed () in
      let sub = Obs.create () in
      let r = Obs.with_collector sub (fun () -> Tracectx.with_current ctx exec) in
      let events =
        Tracectx.events_of_collector ~tid:(Tracectx.tid_worker worker) ctx sub
      in
      (match outer with Some main -> Obs.merge ~into:main sub | None -> ());
      (r, events)
  in
  { r with worker; exec_ms = Mclock.elapsed_ms t0; trace_events }

(* Under [s.mutex]: a job enters its tenant's inflight count at
   dispatch and leaves it at its result or requeue. The live load is
   published to the worker domain's collector as gauges. *)
let dispatched s (job : Manifest.job) delta =
  let n = max 0 (Option.value (Hashtbl.find_opt s.inflight job.tenant) ~default:0 + delta) in
  Hashtbl.replace s.inflight job.tenant n;
  if Obs.enabled () then begin
    Obs.set_gauge "sched.queue_depth" (float_of_int (Pool.depth s.pool));
    Obs.set_gauge ~labels:[ ("tenant", job.tenant) ] "sched.inflight" (float_of_int n)
  end

(* The pool callback. Once [stop] holds, popped jobs are dropped
   unrun; [run] reports them cancelled. *)
let run_job s ~worker (job : Manifest.job) =
  if not (s.stop ()) then begin
    Mutex.protect s.mutex (fun () ->
        if s.waits.(job.index) = None then
          s.waits.(job.index) <- Some (Mclock.elapsed_ms s.start_ms);
        s.depth_samples <- float_of_int (Pool.depth s.pool) :: s.depth_samples;
        dispatched s job 1);
    let t0 = Mclock.now_ms () in
    let finish r =
      let r =
        {
          r with
          requeues = s.crash_counts.(job.index);
          worker;
          exec_ms = Mclock.elapsed_ms t0;
          wait_ms = Option.value s.waits.(job.index) ~default:0.0;
        }
      in
      Mutex.protect s.mutex (fun () ->
          s.results.(job.index) <- Some r;
          dispatched s job (-1))
    in
    let crashes_left = job.crash_workers - s.crash_counts.(job.index) in
    match exec_flow ?cache:s.cache ?artifacts:s.artifacts ~crashes_left job with
    | r ->
      if s.cache <> None then
        Mutex.protect s.mutex (fun () ->
            if r.from_cache then s.hits <- s.hits + 1 else s.misses <- s.misses + 1);
      finish r
    | exception Fault.Injected (site, _) when site = fault_site ->
      let retry =
        Mutex.protect s.mutex (fun () ->
            s.crash_counts.(job.index) <- s.crash_counts.(job.index) + 1;
            s.requeues <- s.requeues + 1;
            let retry = s.crash_counts.(job.index) <= s.max_requeues in
            if retry then dispatched s job (-1);
            retry)
      in
      if retry then Pool.requeue s.pool job
      else
        finish
          (failed_result job
             (Printf.sprintf "worker crashed %d times, requeue budget %d exhausted"
                s.crash_counts.(job.index) s.max_requeues))
    | exception exn -> finish (failed_result job (Printexc.to_string exn))
  end

let build_summary s ~workers results =
  let makespan_ms = Mclock.elapsed_ms s.start_ms in
  let completed = List.length (List.filter (fun r -> not (is_failed r.verdict)) results) in
  let waits = List.map (fun r -> r.wait_ms) results in
  let tenants = List.sort_uniq compare (List.map (fun r -> r.job.Manifest.tenant) results) in
  let per_tenant =
    List.map
      (fun tenant ->
        let mine = List.filter (fun r -> r.job.Manifest.tenant = tenant) results in
        let failed = List.length (List.filter (fun r -> is_failed r.verdict) mine) in
        let done_ = List.length mine - failed in
        {
          tenant;
          tenant_jobs = List.length mine;
          tenant_failed = failed;
          tenant_exec_ms = List.fold_left (fun acc r -> acc +. r.exec_ms) 0.0 mine;
          tenant_throughput =
            (if makespan_ms > 0.0 then float_of_int done_ /. (makespan_ms /. 1000.0)
             else 0.0);
        })
      tenants
  in
  {
    jobs = List.length results;
    completed;
    failed = List.length results - completed;
    cache_hits = s.hits;
    cache_misses = s.misses;
    requeues = s.requeues;
    workers;
    makespan_ms;
    wait_p50_ms = (if waits = [] then 0.0 else Stats.percentile 50.0 waits);
    wait_p99_ms = (if waits = [] then 0.0 else Stats.percentile 99.0 waits);
    per_tenant;
  }

let report_metrics s summary =
  if Obs.enabled () then begin
    List.iter Obs.declare_counter metric_names;
    if s.artifacts <> None then
      List.iter Obs.declare_counter Artifact.metric_names;
    Obs.add_counter "sched.jobs_completed" summary.completed;
    Obs.add_counter "sched.jobs_failed" summary.failed;
    Obs.add_counter "sched.cache_hits" summary.cache_hits;
    Obs.add_counter "sched.cache_misses" summary.cache_misses;
    Obs.add_counter "sched.requeues" summary.requeues;
    Obs.set_gauge "sched.workers" (float_of_int summary.workers);
    (* final load gauges: the queue is drained and nothing is inflight,
       overriding whatever the merged worker collectors last published *)
    Obs.set_gauge "sched.queue_depth" 0.0;
    List.iter
      (fun t -> Obs.set_gauge ~labels:[ ("tenant", t.tenant) ] "sched.inflight" 0.0)
      summary.per_tenant;
    List.iter (Obs.observe "sched.queue_depth_samples") (List.rev s.depth_samples);
    List.iter
      (fun w -> Option.iter (Obs.observe "sched.queue_wait_ms") w)
      (Array.to_list s.waits)
  end

let run ?workers ?cache ?artifacts ?(max_requeues = 2) ?(stop = fun () -> false)
    (manifest : Manifest.t) =
  let workers = Option.value workers ~default:(default_workers ()) in
  if workers < 1 then
    invalid_arg (Printf.sprintf "Sched.run: workers must be >= 1, got %d" workers);
  if max_requeues < 0 then
    invalid_arg (Printf.sprintf "Sched.run: max_requeues must be >= 0, got %d" max_requeues);
  let jobs = manifest.Manifest.jobs in
  let n = List.length jobs in
  let s =
    {
      mutex = Mutex.create ();
      pool = Pool.create (Fairshare.create ~weights:manifest.Manifest.weights jobs);
      results = Array.make n None;
      waits = Array.make n None;
      crash_counts = Array.make n 0;
      inflight = Hashtbl.create 8;
      depth_samples = [];
      hits = 0;
      misses = 0;
      requeues = 0;
      cache;
      artifacts;
      start_ms = Mclock.now_ms ();
      max_requeues;
      stop;
    }
  in
  (* the campaign is fixed up front: drain the queue, then exit *)
  Pool.close s.pool;
  Pool.start s.pool ~workers:(min workers n) (run_job s);
  Pool.join s.pool;
  let job_by_index = Array.of_list jobs in
  let results =
    Array.to_list s.results
    |> List.mapi (fun i r ->
           match r with
           | Some r -> r
           | None when s.stop () ->
             (* cooperative shutdown drained the workers before this job
                was dispatched: report it cancelled, never silently drop
                an accepted job *)
             { (failed_result job_by_index.(i) "cancelled before execution") with
               requeues = s.crash_counts.(i) }
           | None -> failwith (Printf.sprintf "Sched.run: job %d produced no result" i))
  in
  let summary = build_summary s ~workers results in
  report_metrics s summary;
  (results, summary)

let summary_json s =
  Jsonout.Obj
    [
      ("jobs", Jsonout.Int s.jobs);
      ("completed", Jsonout.Int s.completed);
      ("failed", Jsonout.Int s.failed);
      ("cache_hits", Jsonout.Int s.cache_hits);
      ("cache_misses", Jsonout.Int s.cache_misses);
      ("requeues", Jsonout.Int s.requeues);
      ("workers", Jsonout.Int s.workers);
      ("makespan_ms", Jsonout.Float s.makespan_ms);
      ("wait_p50_ms", Jsonout.Float s.wait_p50_ms);
      ("wait_p99_ms", Jsonout.Float s.wait_p99_ms);
      ( "per_tenant",
        Jsonout.List
          (List.map
             (fun t ->
               Jsonout.Obj
                 [
                   ("tenant", Jsonout.String t.tenant);
                   ("jobs", Jsonout.Int t.tenant_jobs);
                   ("failed", Jsonout.Int t.tenant_failed);
                   ("exec_ms", Jsonout.Float t.tenant_exec_ms);
                   ("throughput_per_s", Jsonout.Float t.tenant_throughput);
                 ])
             s.per_tenant) );
    ]

let pp_summary fmt s =
  let hit_rate =
    let total = s.cache_hits + s.cache_misses in
    if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total
  in
  Format.fprintf fmt "campaign: %d jobs, %d completed, %d failed on %d worker%s@."
    s.jobs s.completed s.failed s.workers (if s.workers = 1 then "" else "s");
  Format.fprintf fmt "makespan %.1f ms; queue wait p50 %.1f ms, p99 %.1f ms@."
    s.makespan_ms s.wait_p50_ms s.wait_p99_ms;
  Format.fprintf fmt "cache: %d hits, %d misses (hit rate %.0f%%); %d worker-crash requeue%s@."
    s.cache_hits s.cache_misses (hit_rate *. 100.0) s.requeues
    (if s.requeues = 1 then "" else "s");
  let table =
    Table.create ~title:"Per-tenant throughput"
      ~columns:
        [
          ("tenant", Table.Left);
          ("jobs", Table.Right);
          ("failed", Table.Right);
          ("exec ms", Table.Right);
          ("jobs/s", Table.Right);
        ]
  in
  List.iter
    (fun t ->
      Table.add_row table
        [
          t.tenant;
          Table.cell_int t.tenant_jobs;
          Table.cell_int t.tenant_failed;
          Table.cell_float ~decimals:1 t.tenant_exec_ms;
          Table.cell_float ~decimals:2 t.tenant_throughput;
        ])
    s.per_tenant;
  Format.fprintf fmt "%s@." (Table.render table)
