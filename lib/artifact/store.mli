(** Content-addressed on-disk artifact store.

    One entry per step artifact, named by the step's chained content key
    ({!Stepkey}), kept in a {!Kv} store — the same CRC-guarded,
    internally locked, oldest-mtime-LRU directory format as the job
    cache. Several [eduserved] replicas may share the directory: two
    writers racing on one key both land a complete (identical,
    content-addressed) file.

    Telemetry (when an [Educhip_obs.Obs] collector is installed):
    [artifact.hits], [artifact.misses], [artifact.stores],
    [artifact.evicted], [artifact.quarantined], [artifact.bytes_written],
    [artifact.bytes_read], [artifact.listings]. *)

type t

val default_dir : string
(** [".educhip-artifacts"] *)

val default_max_entries : int
(** 2048 — nine artifacts per flow run, so roughly 225 warm chains. *)

val create : ?max_entries:int -> dir:string -> unit -> t
(** The directory is created lazily on first store.
    @raise Invalid_argument if [max_entries < 1]. *)

val dir : t -> string

type entry = Codec.entry = {
  key : string;  (** the chained content key — also the filename stem *)
  step : string;
  tag : string;  (** {!Codec.encode_state} dispatch tag *)
  state : string;
      (** raw snapshot bytes; decoding is deferred to [Artifact], which
          holds the upstream context a decode needs *)
  report : Educhip_flow.Flow.step_report;
  exec : Educhip_flow.Flow.step_exec;
}
(** Stored as {!Codec.encode_entry}'s bytes in a {!Kv} entry. *)

val store : t -> entry -> unit
(** Write (temp + rename), evict down to the cap. *)

val lookup : t -> string -> entry option
(** Verified read. A hit refreshes the entry's mtime (LRU). A file that
    fails its checksum or whose entry does not decode is quarantined and
    reported as a miss. *)

val probe : t -> string -> bool
(** Would {!lookup} hit? Read-only: no counters, no LRU touch, no
    quarantine — dry-run predictions must not mutate the store they are
    predicting against. *)

val quarantine_key : t -> string -> unit
(** Move the entry for [key], if present, into [quarantine/]. Used by
    [Artifact] when a payload passes its checksum but fails to decode
    (schema drift, hand-edited file). *)

val entries : t -> int
(** Live entries on disk (quarantined files excluded). *)

val quarantined : t -> int

val clear : t -> unit
(** Remove every live entry; quarantined files are kept. *)

val metric_names : string list
(** The [artifact.*] counter families above, for pre-declaration. *)
