(** The one domain worker pool over a live {!Fairshare} queue, under
    both [eduflow batch] ({!Sched.run}) and [eduserved]
    ([Educhip_serve.Server]).

    Every worker is a spawned domain, even when there is one. Workers
    block SIGINT and SIGTERM, wait while the queue is empty, and exit
    once the pool is {!close}d and empty. A job counts as running from
    its pop, under the same lock, until its callback returns. *)

type t

val create : Fairshare.t -> t
(** A pool over a queue it owns from here on. Jobs queued before
    {!start} wait for it. *)

val push : t -> weight:float -> Manifest.job -> unit
(** Queue a job, registering a new tenant's lane at [weight]. *)

val requeue : t -> Manifest.job -> unit
(** Return a job to the front of its tenant's lane. *)

val depth : t -> int
val running : t -> int

val idle : t -> bool
(** Nothing queued and nothing running, read under one lock. *)

val close : t -> unit
(** Finish the queue, then exit. *)

val start : t -> workers:int -> (worker:int -> Manifest.job -> unit) -> unit
(** Spawn [workers] domains, numbered from 0, that call [f] outside the
    pool's lock on every job they pop. If the calling domain has an
    {!Educhip_obs.Obs} collector, each worker runs under its own. *)

val join : t -> unit
(** Wait for the workers, then merge their collectors into the one
    installed when {!start} ran. The wait polls every 10 ms rather than
    blocking in [Domain.join]: a domain blocked there runs no OCaml
    signal handler, so with the workers blocking SIGINT a handler would
    run only after the last job. Re-raises a callback's exception. *)
