(** Wire protocol of the flow service: newline-delimited JSON.

    The paper's Recommendation 7 hub is a {e hosted} flow — university
    teams submit designs to central infrastructure instead of running
    tools locally. This module is the contract between those clients and
    the [eduserved] daemon: every message is one JSON object on one
    line (framing a reader can resynchronize on), encoded and parsed
    with {!Educhip_obs.Jsonout} so the service pulls in no protocol
    dependency the rest of the stack doesn't already have.

    Every message carries a [schema] field ({!schema_version});
    decoders reject versions they don't speak rather than guessing.
    Decoding is otherwise tolerant: optional fields default, unknown
    fields are ignored — a v1 server keeps serving clients that send
    extra members. *)

val schema_version : int
(** Currently [1] — and deliberately still [1]: every field added since
    the first release (trace context on submit, the [stats] op, the
    [trace] member on results) is optional and tolerated by older peers,
    while [decode_request]/[decode_response] reject any {e different}
    version outright, so a bump would cut off legacy peers without
    buying anything. *)

type submit_spec = {
  design : string;  (** a {!Educhip_designs.Designs} entry name *)
  tenant : string;
  preset : string;  (** [open | commercial | teaching]; validated server-side *)
  node : string;
  clock_ps : float option;
  priority : int;  (** >= 1; higher dispatches earlier within the tenant *)
  fault_seed : int;
  retries : int option;  (** [None] = the server's default guard budget *)
  inject : string list;  (** fault armings, [Fault.arming_to_string] form *)
  deadline_ms : float option;
      (** queue-wait budget: a job still undispatched this many ms after
          admission fails with [deadline_exceeded] instead of running *)
  idempotency_key : string option;
      (** client-chosen dedup token (schema stays 1 — legacy servers
          ignore it): a resubmission carrying a key the server has
          already admitted returns the {e original} job id and result
          instead of running twice, so retrying a submit whose response
          was lost to a connection failure is safe. Keys persist in the
          write-ahead journal and survive a server restart. *)
  trace : Educhip_obs.Tracectx.t option;
      (** request trace context, carried as optional [trace_id] /
          [parent_span] members a legacy server ignores *)
  extra : (string * Educhip_obs.Jsonout.t) list;
      (** unknown members received from a newer peer, preserved through
          a decode → re-encode round trip instead of being dropped *)
}

val submit : ?tenant:string -> string -> submit_spec
(** [submit design] with the defaults of a manifest job: tenant
    ["default"] (override with [?tenant]), open preset, node [edu130],
    priority 1, seed 1, server-default retries, no faults, no deadline. *)

type request =
  | Submit of submit_spec
  | Status of string  (** job id *)
  | Result of string  (** job id *)
  | Health
  | Metrics  (** Prometheus text exposition of the server's registry *)
  | Stats  (** per-tenant occupancy/latency plus SLO budgets, for [eduflow top] *)
  | Drain  (** finish accepted jobs, refuse new ones, flush, shut down *)
  | Cluster_status
      (** router-only: per-replica membership/health table
          ({!Cluster_report}). A plain [eduserved] answers
          [Rejected Bad_request] — the op only means something where
          there are replicas to report on. *)
  | Drain_replica of string
      (** router-only: rolling-drain one replica by name — stop routing
          to it, wait out its inflight jobs, drain it, remap its ring
          segment. Same admin-surface idea as [Drain], scoped to one
          member. *)

type reject_reason =
  | Overloaded  (** queue depth at the admission bound — backpressure *)
  | Rate_limited  (** tenant's token bucket is empty *)
  | Quota_exceeded  (** tenant's max-inflight quota is full *)
  | Draining  (** server is shutting down *)
  | Bad_request of string  (** malformed or unvalidatable request *)
  | Unknown_id of string  (** status/result for an id never issued *)

val reject_reason_name : reject_reason -> string
(** The typed wire tag: ["overloaded"], ["rate_limited"], ["quota"],
    ["draining"], ["bad_request"], ["unknown_id"]. *)

val reject_reason_names : string list
(** Every tag {!reject_reason_name} can produce, in declaration order —
    so a server can pre-register its per-reason reject counters at zero
    and a monitor can tell "no rejects yet" from "series missing". *)

type state = Queued | Running | Done | Failed

val state_name : state -> string

type tenant_stats = {
  tenant : string;
  tier : string;
  inflight : int;
  completed_n : int;
  failed_n : int;
  p50_ms : float;  (** end-to-end latency percentiles over recent jobs *)
  p99_ms : float;
}

type replica_info = {
  r_name : string;
  r_addr : string;
  r_up : bool;  (** probed successfully within the staleness window *)
  r_draining : bool;  (** rolling drain in progress: no new routes *)
  r_removed : bool;  (** drain complete: off the ring, process exited *)
  r_routed : int;  (** submissions this router sent it (lifetime) *)
  r_queue_depth : int;  (** from its last health probe; 0 if never up *)
  r_running : int;
  r_completed : int;
  r_failed : int;
}
(** One row of a router's {!Cluster_report} — the router's view of a
    replica, not the replica's self-report: [r_up]/[r_draining] are
    routing decisions, the counters are the last health snapshot. *)

type response =
  | Accepted of { id : string; tier : string; cached : bool; duplicate : bool }
      (** [cached]: the result is already terminal — answered from the
          result cache at admission (no worker will run it), or a
          duplicate of an already-finished job. [duplicate]: this
          submission's idempotency key matched an earlier admission and
          [id] is that original job's; elided on the wire when false so
          legacy peers see the old shape. *)
  | Job_status of { id : string; state : state; verdict : string option }
  | Job_result of {
      id : string;
      verdict : string;
      from_cache : bool;
      exec_ms : float;
      wait_ms : float;
      ppa : Educhip_flow.Flow.ppa option;  (** [None] for failed jobs *)
      record : Educhip_obs.Runlog.record;
      trace_events : Educhip_obs.Tracectx.event list;
          (** the server-side half of the request trace (admission,
              queue-wait, worker execution); [[]] when the submission
              carried no trace context. Elided on the wire when empty. *)
    }
  | Stats_report of {
      uptime_ms : float;
      queue_depth : int;
      running : int;
      completed : int;
      failed : int;
      rejects : (string * int) list;  (** reject counts by reason name *)
      tenants : tenant_stats list;
      slos : Educhip_obs.Slo.report list;
    }
  | Health_report of {
      uptime_ms : float;
      queue_depth : int;
      running : int;
      completed : int;
      failed : int;
      draining : bool;
      workers : int;
    }
  | Metrics_text of string
  | Drain_ack of { pending : int }  (** jobs still queued or running *)
  | Cluster_report of { replicas : replica_info list }
      (** answer to [Cluster_status] and [Drain_replica] (the post-drain
          table), in spec-file order *)
  | Rejected of { reason : reject_reason; retry_after_ms : float option }
      (** [retry_after_ms]: for [Rate_limited], when the bucket will
          hold a token again *)

val encode_request : request -> string
(** One line of compact JSON, no trailing newline. *)

val decode_request : string -> (request, string) result
(** [Error] carries a human-readable reason (malformed JSON, unknown
    op, unsupported schema, missing field) — servers answer it with
    [Rejected Bad_request] rather than dropping the connection. *)

val encode_response : response -> string

val decode_response : string -> (response, string) result

val submit_to_json : submit_spec -> Educhip_obs.Jsonout.t
(** The exact request object [encode_request (Submit s)] serializes —
    exposed so {!Journal} can persist an admitted submission in its
    wire form and re-decode it on recovery. *)

val submit_of_json : Educhip_obs.Jsonout.t -> (submit_spec, string) result
(** Inverse of {!submit_to_json}: validates the [schema] and [op]
    members, then decodes with the same tolerant defaults as
    {!decode_request}. *)

val ppa_to_json : Educhip_flow.Flow.ppa -> Educhip_obs.Jsonout.t
(** [Educhip_sched.Cache.ppa_to_json]: the wire and the result cache
    carry the same bytes. Exposed for tests and the bench harness. *)

val ppa_of_json : Educhip_obs.Jsonout.t -> Educhip_flow.Flow.ppa option
