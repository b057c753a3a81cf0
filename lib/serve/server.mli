(** The flow-as-a-service daemon core: admission control, a live
    fair-share queue, and a persistent worker pool.

    This is the paper's Recommendation 7/8 cloud hub turned from a
    discrete-event model ([Educhip.Cloudhub]) into a running service:
    clients submit flow jobs over a socket ({!Wire}), admission control
    rejects — with typed, retryable responses — what the service cannot
    absorb (token buckets and inflight quotas per tenant tier, a hard
    queue-depth bound for backpressure), and the worker domains of an
    {!Educhip_sched.Pool} (the same pool [eduflow batch] runs on)
    execute admitted jobs through {!Educhip_sched.Sched.run_one}, so a
    served result is bit-identical to the same job in a batch campaign.
    A job whose deadline passed while it was queued ends, unrun, as
    {!Educhip_sched.Sched.failed_result} through the same completion
    path: journal [Done], ledger record, SLO and inflight accounting.

    Life cycle: {!create} builds the state, {!serve} runs the accept
    loop until a drain (wire [drain] request, or {!request_drain} from
    a signal handler) has been honored — new submits are refused, every
    accepted job still finishes, worker telemetry is merged into the
    server's collector — then returns. Connections are {!Listener}'s
    (thread per client under a cap; requests are cheap: admission
    arithmetic and table lookups; only workers run flows). *)

type config = {
  workers : int;  (** worker domains executing admitted jobs *)
  max_queue : int;  (** admission bound: queued jobs beyond this are
                        rejected [overloaded] — backpressure, not
                        unbounded buffering *)
  basic : Ratelimit.limits;  (** Basic-tier buckets and quotas *)
  advanced : Ratelimit.limits;
  tiers : (string * Ratelimit.tier) list;  (** tenant tier assignments;
                                               unlisted tenants are Basic *)
  cache : Educhip_sched.Cache.t option;
      (** warm submits are answered from here at admission, without
          occupying a worker *)
  artifacts : Educhip_artifact.Store.t option;
      (** per-step incremental store layered under [cache]: a cold
          submit resumes from the deepest warm prefix of stored step
          artifacts ([Educhip_artifact]); replicas sharing the directory
          dedupe structurally identical work across tenants *)
  ledger : string option;  (** JSONL run ledger appended per completion *)
  journal : string option;
      (** write-ahead job journal ({!Journal}): every admission is
          fsync'd here before it is acknowledged, every completion
          after; {!recover} replays what a crash left unfinished.
          [None] = no durability (the seed behavior) *)
  default_deadline_ms : float option;
      (** queue-wait budget applied to submits that carry none *)
  slo : (string * Educhip_obs.Slo.objective) list;
      (** latency/success objectives per tier name, served by the
          [stats] wire verb *)
  slo_window : int;  (** completed requests retained per tier (and per
                         tenant for the stats latency percentiles) *)
}

val default_config : config
(** [Sched.default_workers ()] workers, queue bound 64, default tier
    limits, no cache, no artifact store, no ledger, no journal, no
    default deadline,
    {!Educhip_obs.Slo.default_objectives} over a 256-request window. *)

type t

val create : config -> t
(** Build the server state. If the calling domain has no
    {!Educhip_obs.Obs} collector installed, one is created and
    installed — the service is always observable; [serve.*] metrics and
    worker flow telemetry accumulate there.
    @raise Invalid_argument on [workers < 1] or [max_queue < 0]. *)

val serve : t -> Unix.file_descr -> unit
(** Start the worker pool and run {!Listener.serve} on a listening
    socket. Blocks until a drain completes: the pool is idle, so every
    accepted job has a terminal state, its journal and ledger writes
    included; no request is being answered; workers have exited and
    their telemetry is merged.
    The listener is {e not} closed — the caller owns it. A [t] serves
    once; create a fresh one to serve again. *)

val request_drain : t -> unit
(** Stop admitting, let accepted jobs finish, make {!serve} return.
    Async-signal-safe enough for a [Sys.Signal_handle]: sets an atomic
    flag that the accept loop polls; it then closes the pool. *)

(** {1 Crash recovery}

    With [config.journal] set, the server is crash-safe: an
    acknowledged submission survives [kill -9]. Call {!recover}
    {e before} {!serve} — it replays the journal synchronously in the
    calling domain, so by the time the socket opens every job the
    previous life accepted is terminal again, under its original id,
    with a bit-identical result (same executor, same content-addressed
    cache). *)

type recovery_stats = {
  entries_read : int;  (** valid journal entries loaded *)
  dropped_lines : int;  (** torn/corrupt lines discarded by the loader *)
  restored_completed : int;
      (** jobs that had finished before the crash, restored (normally
          from the result cache; re-executed on a cache miss): the
          newest {!max_finished} of them at most, since older ones
          would be evicted at once. Replayed jobs count against the
          same cap, so a large replay can evict restored ones. *)
  replayed : int;  (** accepted-but-unfinished jobs re-executed *)
  started_incomplete : int;
      (** of [replayed], how many the crash caught mid-execution *)
  invalid_specs : int;
      (** journaled specs that no longer validate (e.g. a design
          renamed between runs) — skipped, not fatal *)
  recovery_wall_ms : float;
}

val recover : t -> recovery_stats option
(** Load the journal, restore completed jobs, replay unfinished ones in
    original admission order through [Sched.run_one], re-register
    everything under its original job id (bumping the id allocator
    past them), then compact the journal to one accepted+done pair per
    job and reopen it for appending. [None] iff [config.journal] is
    [None]. Idempotency keys recorded in the journal are re-registered
    too, so a client retrying across the restart is still
    deduplicated. *)

val recovery_stats_json : recovery_stats -> Educhip_obs.Jsonout.t
(** The object [eduserved] writes to [<journal>.recovery.json] at
    startup — the chaos harness reads it to score a recovery. *)

val max_finished : int
(** 512: terminal job entries kept, least recently used evicted first
    (a [status], [result] or duplicate submit counts as a use), each
    with its idempotency key. A [status] or [result] for an evicted id
    answers [Unknown_id]; a resubmission with an evicted key runs as a
    new job. Queued and running jobs are never evicted, and {!recover}
    restores at most this many finished jobs. *)

val table_sizes : t -> int * int
(** Job entries and idempotency keys currently held. *)

val handle : t -> Wire.request -> Wire.response
(** Process one request against the server state — the unit the
    connection threads call, exposed so tests can drive admission
    control without sockets.

    A submit carrying a {!Educhip_obs.Tracectx} gets its server-side
    story recorded as trace events: one [serve.admission] event at
    acceptance, one [serve.queue_wait] event at dispatch, then the
    worker execution's span tree — all returned on [Wire.Job_result]
    ([trace_events]) when the result is fetched, and the job's ledger
    record gains [trace_id]/[queue_wait_ms]. Every completion (run,
    warm serve, deadline expiry) is also accounted against the tier's
    SLO window and the tenant's latency sample, which the [stats] verb
    reports.

    A [Result] with [wait_ms] for a job that is not terminal holds the
    calling thread until the job finishes or the wait (at most
    {!Wire.max_wait_ms}) runs out, using no CPU meanwhile; a traced job
    gets a [serve.result_wait] event for the hold. *)

val validate_spec :
  Wire.submit_spec -> (Educhip_sched.Manifest.job, string) result
(** Elaborate a wire submission into the job it would run: design,
    node, and preset resolved, fault armings parsed, priority checked.
    [Error] is the human-readable reason a server answers as
    [Rejected Bad_request]. Exposed so a cluster router can refuse
    invalid submissions locally — and compute {!job_key} — without
    spending a replica round trip. *)

val job_key : Educhip_sched.Manifest.job -> string
(** The content-addressed identity of a validated job — exactly the
    result-cache key ({!Educhip_sched.Cache.job_key} over the
    elaborated netlist, flow config, and fault plan). Two submissions
    with equal keys produce bit-identical results, which is what makes
    it the cluster routing key: hashing it onto a replica ring gives
    every resubmission cache affinity with its first run.
    @raise Not_found on a job naming an unknown design or node —
    validate first. *)

val metric_names : string list
(** Counter families the server reports: [serve.admitted],
    [serve.rejected] (labeled by [reason]), [serve.cache_hits],
    [serve.jobs_completed], [serve.jobs_failed],
    [serve.deadline_expired], [serve.idempotent_hits] (duplicate
    submissions answered with their original id),
    [serve.journal_appends], [serve.replayed] (jobs re-executed by
    {!recover}), and the connection-hygiene counters
    [serve.conn_opened] / [serve.conn_closed] / [serve.conn_timeouts]
    / [serve.conn_oversized] ({!Listener.counts}). It also maintains
    the [serve.queue_depth] / [serve.running] gauges and the
    [serve.request_ms] histogram labeled by [op]: a decoded request's
    time in the server, its response write and any result hold
    excluded. The hold of a [Result] that waited goes to the
    [serve.result_wait_ms] histogram. *)
