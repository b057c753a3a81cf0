(** A real [eduserved] child process, for the harnesses that need one:
    the chaos campaign ({!Chaos}), the cluster smoke check and the
    cluster bench. Each starts replicas with the same roomy admission
    gates (the harnesses measure durability and sharding, not admission
    control) and a log file that failures quote. *)

type t = { pid : int; socket : string; log : string }

val start :
  exe:string ->
  socket:string ->
  cache_dir:string ->
  log:string ->
  workers:int ->
  ?journal:string ->
  unit ->
  t
(** Spawn [exe] on a Unix [socket] with [--workers], [--cache-dir] and,
    when given, [--journal]. Stdin is [/dev/null]; stdout and stderr
    append to [log]. Does not wait: see {!wait_ready}. *)

val wait_ready : t -> unit
(** Poll until the socket accepts a connection. eduserved replays its
    journal before it opens the socket, so readiness also means
    recovery has finished.
    @raise Failure if the process exits first or 60 s pass; the
    message carries the tail of the log. *)

val drain : t -> unit
(** Ask the daemon to drain and reap it. A daemon that is already gone
    (drained through a router, killed) is just reaped. *)

val kill : t -> unit
(** SIGKILL and reap. *)

val log_tail : t -> string
(** The last 2000 bytes of the log, for failure messages. *)
