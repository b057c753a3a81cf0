(** Domain-parallel campaign engine.

    Runs a {!Manifest} of flow jobs on the {!Pool} of OCaml 5 domains,
    dispatching through its {!Fairshare} queue and short-circuiting
    repeated work through the {!Cache}. The engine is built so that
    {e what} a campaign computes is independent of {e how} it is
    scheduled: each job's result depends only on its own (netlist,
    config, fault plan, seed, retry budget) — observability collectors
    and fault injectors are domain-local, the cache key excludes
    anything timing-dependent — so PPA, verdicts, and ledger QoR are
    identical for [~workers:1] and [~workers:8], and a cached replay is
    identical to a fresh run.

    Worker crashes are first-class: a job with [crash_workers > 0] is
    crash-injected at the {!fault_site} probe before its flow starts,
    and the scheduler requeues it (to the front of its tenant's lane,
    bounded by [max_requeues]) exactly as a cluster scheduler reclaims
    a job from a died executor. *)

val fault_site : string
(** ["sched.worker"] — probed by a worker between taking a job and
    running its flow. Arm it via a manifest job's [crash-workers]. *)

type job_result = {
  job : Manifest.job;
  verdict : string;  (** [Flow.verdict_to_string] form, or
                         ["failed(<exn>)"] for engine-level failures *)
  ppa : Educhip_flow.Flow.ppa option;  (** [None] for failed jobs *)
  record : Educhip_obs.Runlog.record;
  from_cache : bool;
  requeues : int;  (** worker-crash requeues this job went through *)
  worker : int;  (** worker that produced the final result, 0-based *)
  exec_ms : float;  (** wall time of the final execution (or cache hit) *)
  wait_ms : float;  (** campaign start to first dispatch *)
  trace_events : Educhip_obs.Tracectx.event list;
      (** the execution's span tree flattened onto the request trace;
          [[]] unless {!run_one} was given a trace context *)
}

type tenant_stat = {
  tenant : string;
  tenant_jobs : int;
  tenant_failed : int;
  tenant_exec_ms : float;  (** summed execution wall time *)
  tenant_throughput : float;  (** completed jobs per second of makespan *)
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
  per_tenant : tenant_stat list;  (** sorted by tenant name *)
}

val is_failed : string -> bool
(** Does a verdict string denote failure (["failed..."])? The negative
    space — [ok], [degraded(...)] — counts as completed. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()], capped to 16. *)

val elaborate : Manifest.job -> Educhip_netlist.Netlist.t * Educhip_flow.Flow.config
(** The job's netlist (elaborated from RTL) and flow config: the one
    place a job becomes flow inputs. @raise Not_found on an unknown
    design or node. *)

val failed_result : Manifest.job -> string -> job_result
(** The uncached result of a job whose flow never ran or never
    finished: verdict ["failed(reason)"], no PPA or QoR, [worker = -1]. *)

val run :
  ?workers:int ->
  ?cache:Cache.t ->
  ?artifacts:Educhip_artifact.Store.t ->
  ?max_requeues:int ->
  ?stop:(unit -> bool) ->
  Manifest.t ->
  job_result list * summary
(** Execute the campaign. Results come back in manifest job-index order
    regardless of completion order. Every job execution happens in a
    {!Pool} worker domain — even with [~workers:1] — so serial and
    parallel runs exercise identical code. [max_requeues] (default 2)
    bounds per-job worker-crash requeues; past it the job fails.

    [stop] is polled by a worker before each job it pops (default:
    never stop). Once it returns [true], in-flight jobs finish
    normally, nothing further runs, and undispatched jobs come back
    as {!failed_result}[ job "cancelled before execution"] (counted in
    {!summary.failed}) — the hook a SIGINT/SIGTERM handler needs to
    drain the pool and still flush ledgers and telemetry. Workers block
    both signals and the calling domain polls while it waits, so the
    handler runs in the caller within ~10 ms. Make the hook read an
    [Atomic.t]: plain [ref] writes have no cross-domain visibility
    guarantee.

    [artifacts] layers the per-step incremental store
    ([Educhip_artifact]) under the whole-job [cache]: a job-cache miss
    resumes its flow from the deepest warm prefix of stored step
    artifacts and stores each recomputed step, so partially-changed
    jobs — a late-step config edit, a shared subdesign from another
    tenant or campaign — pay only for the steps whose inputs actually
    changed. Results stay bit-identical to cold runs. The store locks
    internally, so one directory may be shared across workers, replicas,
    and concurrent campaigns.

    When an {!Educhip_obs.Obs} collector is installed in the calling
    domain, each worker runs under its own collector and they are merged
    into the caller's after the join, along with the scheduler's own
    {!metric_names} families (queue depth and wait histograms, cache
    hit/miss and requeue counters, worker gauge).
    @raise Invalid_argument if [workers < 1] or [max_requeues < 0]. *)

val run_one :
  ?cache:Cache.t ->
  ?artifacts:Educhip_artifact.Store.t ->
  ?worker:int ->
  ?trace:Educhip_obs.Tracectx.t ->
  Manifest.job ->
  job_result
(** Execute a single job in the {e calling} domain — the submit-one-job
    entry point a long-running service pool dispatches through. Shares
    the campaign engine's executor: same cache key, same guard policy
    wiring, same ledger record shape, so a result served by a daemon is
    bit-identical to the same job in a batch campaign. Cache lookups and
    stores are serialized process-wide. [artifacts] is the same
    incremental-store layer as {!run}'s — a daemon pointing at the
    directory a batch campaign populated resumes from its artifacts,
    and vice versa. Engine-level exceptions are
    folded into a {!failed_result}; [worker] (default 0) is
    recorded in the result. [wait_ms] is 0 — queue wait is the
    caller's to account.

    With [?trace], the execution runs under that ambient
    {!Educhip_obs.Tracectx} in a private collector: its span tree (the
    [flow.run] root, all ten step spans, guard attempts) comes back
    flattened in {!job_result.trace_events} tagged with the trace id and
    [Tracectx.tid_worker worker], and the private collector is merged
    into the domain's installed collector so aggregate telemetry is
    unchanged. The cache stays trace-free: a hit produces no flow spans,
    and stored records never contain per-request fields. *)

val metric_names : string list
(** Counter families the scheduler reports: [sched.jobs_completed],
    [sched.jobs_failed], [sched.cache_hits], [sched.cache_misses],
    [sched.requeues]; the cache itself counts under [cache.*].
    When {!run} is given an artifact store, the [artifact.*] families
    are declared as well. It also sets the [sched.workers] gauge and the
    [sched.queue_wait_ms] / [sched.queue_depth_samples] histograms.
    While jobs are being dispatched, workers additionally publish live
    load gauges to their own collectors — [sched.queue_depth] and the
    per-tenant [sched.inflight{tenant}] — which {!run} pins to [0.] on
    the caller's collector once the campaign drains. *)

val summary_json : summary -> Educhip_obs.Jsonout.t

val pp_summary : Format.formatter -> summary -> unit
(** Campaign summary: totals line, cache line, wait percentiles, and a
    per-tenant throughput table. *)
