(** A directory of CRC-guarded byte entries keyed by string.

    The one storage layer under both the whole-job result cache
    ([Educhip_sched.Cache], JSON text) and the per-step artifact store
    ({!Store}, {!Codec}'s binary form); each of those is only an entry
    codec over this module.

    - {b Format.} One file [<key>.json] per entry (the name predates
      byte payloads): the payload bytes, then a fixed-width 16-byte
      trailer, ["
crc32 "], the CRC-32 of the payload as 8 lowercase hex
      digits, and ["
"]. A file that does not end in such a trailer
      matching the bytes before it is corrupt; so is one whose [decode]
      raises [Failure]. The check reads the payload in place, without
      copying it.
    - {b Older builds} wrote the payload as a JSON object with the CRC
      spliced in as a last [crc] member. Such an entry fails
      verification at its first read, is quarantined, and the caller
      recomputes it, bit-identically; entries that are never read again
      (the artifact store's keys changed with the format) age out under
      the cap.
    - {b Writes} are temp file + rename, so concurrent readers — worker
      domains in one process, or several processes sharing the
      directory — never observe a torn entry.
    - {b Eviction} is oldest-mtime first ({!get} touches on hit), the
      name breaking ties, once the live entry count exceeds
      [max_entries]. A store does not list the directory on every put:
      it lists once at its first put and then keeps a count, adding one
      for each put that creates a new file (rewriting a key adds
      nothing) and taking one off for each entry it evicts, quarantines
      or clears. Only a put that takes the count past [max_entries]
      lists the directory again, evicts the oldest entries down to the
      cap and resets the count from that listing. A file deleted behind
      the store's back leaves the count high, so the store lists early,
      never late: a store that is alone on its directory holds the cap
      after every put.
    - {b Shared directories.} Several stores on one directory (two
      [eduserved] replicas, or two [t]s in one process) each count from
      their own last listing, so entries the other stores wrote are
      counted only at that store's next listing. Between listings the
      directory can hold more than [max_entries]; a put that lists
      evicts it down to [max_entries] as that listing found it.
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
    [.quarantined], [.bytes_written], [.bytes_read], and [.listings],
    the directory listings a put made to recount the entries. *)

type t

val create : family:string -> ?max_entries:int -> dir:string -> unit -> t
(** [family] prefixes the counters. The directory is created lazily on
    first {!put}. [max_entries] defaults to 512.
    @raise Invalid_argument if [max_entries < 1]. *)

val dir : t -> string

val put : t -> string -> string -> unit
(** [put t key payload] writes [payload] under [key]; if that takes the
    entry count past the cap, lists the directory and evicts down to it. *)

val get : t -> string -> decode:(string -> len:int -> 'a) -> 'a option
(** Verified read: [decode text ~len] reads the payload, the first [len]
    bytes of the file's [text] (the trailer follows them). A hit
    refreshes the entry's mtime. A missing file is a miss; a corrupt one
    is quarantined and is a miss. *)

val probe : t -> string -> decode:(string -> len:int -> 'a) -> bool
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
