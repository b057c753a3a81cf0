(** A directory of CRC-guarded JSON entries keyed by string.

    The one storage layer under both the whole-job result cache
    ([Educhip_sched.Cache]) and the per-step artifact store ({!Store});
    each of those is only an entry codec over this module.

    - {b Format.} One file [<key>.json] per entry: the serialized payload
      object with a trailing [crc] member spliced in before its closing
      brace — the CRC-32 of the payload bytes {e without} that member —
      then a newline. A file whose bytes do not end in a valid [crc]
      member matching the rest is corrupt; so is one that fails to parse
      or whose [decode] raises [Failure].
    - {b Writes} are temp file + rename, so concurrent readers — worker
      domains in one process, or several processes sharing the
      directory — never observe a torn entry.
    - {b Eviction} is oldest-mtime first ({!get} touches on hit) once
      the live entry count exceeds [max_entries].
    - {b Corrupt entries} read as misses and are moved into the
      [quarantine/] subdirectory as evidence, where they neither hit nor
      count against the cap.
    - {b Locking} is internal: every operation holds a per-store mutex,
      so callers in any domain or thread need no lock of their own.
      Stores in other processes (or other [t]s on the same directory)
      are not locked out: an entry replaced or evicted under a reader
      reads as the complete old file, the complete new one, or a miss.

    Telemetry (when an [Educhip_obs.Obs] collector is installed), one
    family per store: [<family>.hits], [.misses], [.stores], [.evicted],
    [.quarantined], [.bytes_written], [.bytes_read]. *)

type t

val create : family:string -> ?max_entries:int -> dir:string -> unit -> t
(** [family] prefixes the counters. The directory is created lazily on
    first {!put}. [max_entries] defaults to 512.
    @raise Invalid_argument if [max_entries < 1]. *)

val dir : t -> string

val put : t -> string -> Educhip_obs.Jsonout.t -> unit
(** [put t key payload] writes [payload] under [key], then evicts down
    to the cap.
    @raise Invalid_argument unless [payload] is a non-empty object. *)

val get : t -> string -> decode:(Educhip_obs.Jsonout.t -> 'a) -> 'a option
(** Verified read: [decode] sees the payload without its [crc] member.
    A hit refreshes the entry's mtime. A missing file is a miss; a
    corrupt one is quarantined and is a miss. *)

val probe : t -> string -> decode:(Educhip_obs.Jsonout.t -> 'a) -> bool
(** Would {!get} hit? Read-only: no counters, no mtime touch, no
    quarantine — dry-run predictions must not mutate the store they are
    predicting against. *)

val quarantine : t -> string -> unit
(** Move the entry for [key], if present, into [quarantine/]. For
    callers whose own, later decode of a verified payload fails (schema
    drift, a hand-edited file). *)

val entries : t -> int
(** Live entries on disk (quarantined files excluded). *)

val quarantined : t -> int
(** Entries sitting in [quarantine/]. *)

val clear : t -> unit
(** Remove every live entry; quarantined files are kept. *)

val metric_names : family:string -> string list
(** The counter names above for [family], for pre-declaration. *)
