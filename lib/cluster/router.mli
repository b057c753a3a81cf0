(** The cluster router: one Wire endpoint fronting N [eduserved]
    replicas.

    Clients speak the {e unchanged} {!Educhip_serve.Wire} protocol to
    the router; the router shards every submission by its
    content-addressed job key ({!Educhip_serve.Server.job_key} — the
    result-cache key) onto a seeded consistent-hash {!Ring} of
    replicas. Equal jobs therefore always land on the same replica and
    hit its warm cache; a replica joining or leaving moves only its own
    ring segment.

    What the router adds on top of placement:

    - {b namespaced ids}: a replica's [j-000042] comes back as
      [r1/j-000042], so ids from different replicas never collide and
      status/result requests route themselves;
    - {b failover}: a submission whose home replica is down (health
      probe stale, or a transport error just now) walks the ring to the
      next live member — retried through
      {!Educhip_serve.Client.submit_with_retry} under an idempotency
      key (the client's, or one the router mints), so the retry can
      never double-run;
    - {b aggregation}: [health] / [stats] / [metrics] fan out to every
      replica and come back merged ({!Aggregate}) — sums, worst-case
      latencies, per-replica [target=] labels on every metric sample;
    - {b rolling drain} ([drain_replica NAME]): stop routing to the
      replica, wait out every job the router sent it (stashing their
      terminal results so [result] keeps answering after the replica
      is gone), drain the replica itself, then remap its ring segment.
      Zero accepted jobs are lost. Only the results the replica still
      holds are stashed: one it had already evicted (it keeps the
      {!Educhip_serve.Server.max_finished} most recently used) answers
      [unknown_id] after the drain as it did before.

    Thread model: as under the server, {!Educhip_serve.Listener} runs
    a thread per client connection over {!handle}, which takes the
    router's lock only around state — never across replica I/O. Health
    probing runs on one background thread ({!start_prober}) built on
    {!Educhip_mon.Scrape} (persistent connections, staleness-window
    liveness); {!handle} works without it, marking replicas down on
    submit-path transport errors and up again on any successful
    fan-out. *)

type config = {
  spec : Spec.t;
  retry : Educhip_serve.Client.retry_policy;
      (** failover policy for submissions; each reconnect picks the
          next live ring successor *)
  connect_timeout_ms : float;  (** router → replica *)
  read_timeout_ms : float;  (** router → replica *)
  drain_await_timeout_ms : float;
      (** rolling drain: how long to wait for one inflight job to reach
          a terminal state before the drain gives up (the replica is
          presumed wedged and is {e not} removed) *)
  stash_max : int;
      (** bound on the drained-away result stash: past it the
          least-recently-touched results are evicted (counted by the
          [cluster_stash_evicted_total] metric) and later requests for
          them answer [Unknown_id] — bounded router memory over
          indefinitely replayable history *)
}

val config : Spec.t -> config
(** Defaults around a spec: the client module's default retry policy
    reseeded from the spec's hash seed, 1 s connect / 30 s read toward
    replicas, 60 s drain await, 512-entry result stash. *)

type t

val create : config -> t
(** Build router state over the spec's replicas — every replica starts
    optimistically up (a probe or a failed request corrects that).
    @raise Invalid_argument on [stash_max < 1], or via {!Ring.create}
    on a spec with duplicate or empty replica names. *)

val handle : t -> Educhip_serve.Wire.request -> Educhip_serve.Wire.response
(** Process one client request — routing, proxying, aggregation, and
    the [cluster_status] / [drain_replica] admin verbs. Exposed
    socket-free for the test suite, exactly like
    {!Educhip_serve.Server.handle}. *)

val cluster_rows : t -> Educhip_serve.Wire.replica_info list
(** The [cluster_status] table, spec order: routing flags and lifetime
    routed counts from router state, queue/job counters from a live
    health fan-out (zeros for unreachable replicas). *)

val start_prober : t -> unit
(** Spawn the background health-probe thread: every
    [spec.probe_interval_ms] it scrapes each non-removed replica
    ({!Educhip_mon.Scrape}, so probe history lands in a {!Educhip_mon.Tsdb})
    and refreshes the up/down flags against [spec.staleness_ms]. A
    replica never yet probed stays optimistically up for the first
    staleness window after {!create}. No-op if already started. *)

val scrape : t -> Educhip_mon.Scrape.t
(** The prober's scraper (probe history, staleness). Owned by the
    prober thread once {!start_prober} ran — read its {!Educhip_mon.Tsdb}
    only after {!stop}. *)

val request_drain : t -> unit
(** Router-level drain, async-signal-safe: stop accepting new
    submissions ([Rejected draining]) and make {!serve} return.
    Replicas are left running — they may be shared. *)

val serve : t -> Unix.file_descr -> unit
(** {!Educhip_serve.Listener.serve} over {!handle} on a listening
    socket. Returns once a drain or {!stop} has been requested and no
    request is still being answered. The listener is not closed — the
    caller owns it. *)

val stop : t -> unit
(** Stop and join the prober (closing its probe connections). Idempotent. *)
