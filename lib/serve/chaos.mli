(** Wire-level chaos harness: SIGKILL a live [eduserved], restart it,
    and score the recovery.

    This is the durability contract's enforcement arm. {!run} drives a
    {e real} daemon process (the journal's promises are about surviving
    [kill -9], which an in-process server cannot stage against itself):

    + {b Baseline}: start the daemon on fresh state, submit every job
      and await its result — the reference signatures (verdict + full
      PPA) a correct recovery must reproduce bit-identically.
    + {b Chaos}: fresh state again; submit the same jobs (same
      idempotency keys) {e without} awaiting, SIGKILL the daemon at
      seeded submission points, restart it, and read the recovery
      stats [eduserved --journal] writes to [<journal>.recovery.json].
      After each restart the just-acknowledged submission is sent
      again — under a journal its key must come back [duplicate] with
      the original id.
    + {b Score}: fetch every job by its {e original} id. An
      [unknown_id] is a lost acknowledged job; a signature differing
      from baseline is a determinism violation.

    With [use_journal = false] the same campaign measures what the seed
    behavior loses — the control arm of EXPERIMENTS.md X11. Everything
    random (kill points, backoff jitter) derives from [config.seed]. *)

type config = {
  daemon : string;  (** path to the [eduserved] executable *)
  state_dir : string;
      (** scratch directory for socket, journal, caches, daemon log —
          created if missing; baseline and chaos state are kept apart
          inside it *)
  workers : int;  (** daemon worker domains *)
  jobs : Wire.submit_spec list;
      (** the campaign; idempotency keys are overwritten with
          [chaos-k<i>] so the harness controls identity. At most
          {!Server.max_finished} jobs: the daemon evicts older finished
          ids (and their keys) by design, and the score would count
          them as lost. *)
  kills : int;  (** SIGKILLs to deliver (clamped to the job count) *)
  seed : int;  (** drives kill-point selection and client backoff *)
  use_journal : bool;  (** [false] = control arm: no [--journal] *)
}

type stats = {
  mode : string;  (** ["journal"] or ["no_journal"] *)
  jobs_total : int;
  kills : int;
  recoveries : int;  (** restarts that completed (always = kills) *)
  replayed_total : int;
      (** accepted-but-unfinished jobs re-executed across all
          recoveries (journal arm only) *)
  restored_total : int;  (** finished jobs restored across all recoveries *)
  duplicate_probes : int;  (** post-restart resubmissions attempted *)
  duplicates_suppressed : int;
      (** probes answered [duplicate] with the original id *)
  lost : int;  (** acknowledged jobs whose id the final daemon does not know *)
  mismatched : int;  (** surviving jobs whose signature differs from baseline *)
  zero_loss : bool;  (** [lost = 0] — the headline durability verdict *)
  bit_identical : bool;  (** [mismatched = 0] *)
  recovery_wall_ms_total : float;  (** summed over recoveries *)
  wall_ms : float;  (** whole campaign, baseline included *)
}

val run : config -> stats
(** Execute the campaign.
    @raise Invalid_argument on an empty campaign or one larger than
    {!Server.max_finished}.
    @raise Failure on harness-level trouble (daemon won't start, a
    submission rejected, suppression violated under a journal) — with
    the tail of the daemon log in the message where relevant. Job
    losses and mismatches are {e results}, not failures. *)

val stats_json : stats -> Educhip_obs.Jsonout.t
(** The object [bench --chaos] writes per arm into [BENCH_chaos.json]. *)
