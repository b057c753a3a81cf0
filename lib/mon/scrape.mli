(** Multi-target poller: turn daemon snapshots into {!Tsdb} history.

    One scrape {b tick} visits every configured target (an [eduserved]
    endpoint, Unix socket or [HOST:PORT]) over the existing Wire verbs
    — [health], [stats], and [metrics] — through [Educhip_serve.Client]
    with its connect/read timeouts, and records every value it learns
    as a sample at the caller-supplied [now_ms]. Each sample carries a
    [("target", name)] label, so the same metric from two daemons stays
    two series. [eduflow mon], [eduflow top] (one target named
    [default]) and the cluster router's replica prober all run on it.

    Recorded per healthy target and tick:
    - [scrape.up] (gauge, 1) plus [scrape.duration_ms];
    - [health.*]: queue depth, running, completed, failed, workers,
      uptime;
    - [stats.*]: rejects by reason, per-tenant inflight and latency
      percentiles;
    - [slo.*]: burn rate, p99, ok-rate, and remaining budgets per tier
      (from the daemon's [Stats_report] — what [slo-burn] rules watch);
    - every sample of the daemon's Prometheus text exposition, parsed
      tolerantly ({!parse_exposition}) with kinds taken from [# TYPE]
      lines.

    A target whose scrape fails (connect refused, timeout, torn
    response) gets [scrape.up = 0] for the tick and nothing else — its
    staleness ({!staleness_ms}) then grows until a scrape succeeds
    again, which is how a killed daemon is detected within one
    staleness window.

    Connections are persistent: a target's connection is opened on
    first use and reused across ticks (a per-tick reconnect costs the
    daemon a connection-thread spawn and teardown — a measurable tax at
    1 s cadence). A connection that fails in any way is dropped and
    reopened on the next tick, so a restarted daemon is picked back up
    automatically.

    Like the store it feeds, ticking is clockless: the caller supplies
    [now_ms], so a test can replay a deterministic schedule while a
    daemon drives real time. Not thread-safe — one scraper, one
    domain. *)

type target = { target_name : string; addr : string }

val target_of_spec : string -> target
(** Parse a CLI [NAME=ADDR] spec; a bare [ADDR] names itself.
    @raise Invalid_argument on an empty name or address. *)

type t

val create : ?connect_timeout_ms:float -> ?read_timeout_ms:float -> target list -> t
(** Timeouts default to 1 s connect / 5 s read; the series go to a
    fresh {!Tsdb} ({!tsdb}). @raise Invalid_argument on an empty or
    duplicate-name target list. *)

val tsdb : t -> Tsdb.t
val targets : t -> target list

type tick_result = {
  target : string;
  ok : bool;
  error : string option;
  samples : int;  (** series samples recorded from this target *)
}

val tick : t -> now_ms:float -> tick_result list
(** Scrape every target once, in configuration order. Never raises:
    per-target failures are reported in the result (and as
    [scrape.up = 0]). *)

val step :
  ?alert_log:string ->
  t ->
  Rules.t ->
  now_ms:float ->
  tick:int ->
  tick_result list * Alertlog.entry list
(** The monitoring loop's one step, under [eduflow mon] and [eduflow
    top]: {!tick}, then {!Rules.eval} over {!tsdb} at the same
    [now_ms], each transition appended to [alert_log] when given.
    Returns the scrape results and the transitions, in rule order. *)

val last_reports :
  t -> string -> (Educhip_serve.Wire.response * Educhip_serve.Wire.response) option
(** The [Health_report] and [Stats_report] of the named target's last
    successful scrape — for a renderer that needs fields no series
    carries (a tenant's tier, an SLO's objective); [None] before the
    first one. *)

val last_ok_ms : t -> string -> float option
(** [now_ms] of the last successful scrape of the named target; [None]
    if it has never succeeded (or is not configured). *)

val staleness_ms : t -> now_ms:float -> string -> float option
(** Age of the named target's data: [now_ms - last_ok_ms]. *)

val up : t -> now_ms:float -> staleness_window_ms:float -> string -> bool
(** A target is up when it has been scraped successfully within the
    window — the liveness predicate surfaced as
    [scrape.up{target=...}] and used by target-down rules. *)

val close : t -> unit
(** Close every open target connection. The scraper stays usable —
    the next {!tick} reconnects. *)

val parse_exposition :
  string -> (string * (string * string) list * Tsdb.kind * float) list
(** Tolerant Prometheus text-format (0.0.4) parser: returns
    [(name, labels, kind, value)] per sample line, kinds resolved from
    the [# TYPE] lines seen so far (default [Gauge]; [summary]
    families keep their [quantile] label). Unparseable lines and
    non-finite values are skipped, never fatal — a scraper must survive
    a newer daemon's exposition. Exposed for the test suite. *)

val relabel :
  target:string -> (string * string) list -> (string * string) list
(** The label set a sample is recorded under: the poller's
    [("target", target)] prepended, with any {e incoming} [target]
    label — e.g. the per-replica tags in a router's merged exposition —
    preserved as [instance] ([exported_target] if the series already
    uses [instance]) instead of being shadowed. Exposed so the suite
    can pin the collision behavior without a live scrape. *)
