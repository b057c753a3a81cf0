(** Content-addressed result cache for flow runs.

    A campaign re-runs the same (design, config) pairs constantly —
    course cohorts submit near-identical projects, regression sweeps
    repeat last week's matrix. Since a guarded flow run is a pure
    function of (netlist structure, full flow config, fault plan, guard
    policy, flow code version), its result can be keyed by a digest of
    exactly those inputs and replayed instead of recomputed. Anything
    that could change the result changes the key; anything that cannot
    (design display name, wall-clock, worker count) is excluded, so a
    hit is bit-identical to a fresh run's QoR.

    Storage is an {!Educhip_artifact.Kv} store (counter family
    [cache.*]): one CRC-guarded JSON file per key under the cache
    directory, evicted LRU by file mtime ({!lookup} touches on hit) once
    the entry count exceeds the cap, with internal locking. An
    unreadable, unparsable, checksum-failing or crc-less entry behaves
    as a miss and is moved to the [quarantine/] subdirectory for
    inspection (counted by [cache.quarantined]) rather than silently
    deleted, since a corrupt entry is evidence of bit rot or a torn
    copy, not just dead weight. Quarantined files neither hit nor count
    against the eviction cap. *)

type t

val default_dir : string
(** [".educhip-cache"] *)

val default_max_entries : int

val create : ?max_entries:int -> dir:string -> unit -> t
(** The directory is created lazily on first {!store}.
    @raise Invalid_argument if [max_entries < 1]. *)

val flow_code_version : string
(** Manual bump counter plus the flow's step sequence — either changing
    invalidates every prior key. *)

val job_key :
  netlist:Educhip_netlist.Netlist.t ->
  cfg:Educhip_flow.Flow.config ->
  inject:Educhip_fault.Fault.plan ->
  fault_seed:int ->
  retries:int ->
  string
(** Hex digest of every input a guarded run's result depends on:
    {!flow_code_version}, [Netlist.structural_digest],
    [Flow.config_signature], the armed fault plan with its seed, and
    the guard retry budget. *)

type entry = {
  key : string;
  verdict : string;  (** [Flow.verdict_to_string] form *)
  ppa : Educhip_flow.Flow.ppa option;  (** [None] for aborted runs *)
  record : Educhip_obs.Runlog.record;
      (** the full ledger record of the original run *)
}

val ppa_to_json : Educhip_flow.Flow.ppa -> Educhip_obs.Jsonout.t
(** The PPA object as stored in an entry — and as sent on the wire,
    which reuses it. *)

val store : t -> entry -> unit
(** Write (temp file + rename, so concurrent readers never see a
    partial entry), then evict oldest-mtime entries beyond the cap. *)

val lookup : t -> string -> entry option
(** Verified read; a hit refreshes the entry's mtime (LRU touch). *)

val probe : t -> string -> bool
(** Would {!lookup} hit? Read-only — no counters, no mtime touch, no
    quarantine — used by dry-run predictions. *)

val entries : t -> int
(** Entry files currently in the cache directory (quarantined files
    excluded). *)

val quarantined : t -> int
(** Entry files sitting in the [quarantine/] subdirectory. *)

val clear : t -> unit
(** Remove every entry (the directory itself is kept if present). *)
