(** Deterministic fault injection.

    The paper's availability recommendations (the vendor-independent flow
    template of Rec. 4 and the centralized hub of Rec. 7) presume
    enablement infrastructure that keeps working when individual tools
    misbehave — the open-flow experience reports cited in PAPERS.md
    consistently find that tool {e fragility}, not tool absence, is what
    breaks student tapeouts. This module lets the test suite, the CLI,
    and the bench harness reproduce that fragility on demand:

    - a {b fault plan} arms named {b sites} (probe points inside the flow
      template and the kernels) with a fault {!kind} and a firing budget;
    - instrumented code {b probes} its sites ({!check}, {!corrupted});
      armed probes fire, unarmed probes cost one load and branch — the
      same discipline as [Educhip_obs];
    - everything is reproducible from [(seed, plan)]: the only hidden
      state is a {!Educhip_util.Rng} stream seeded explicitly, used to
      pick among multiple armings of one site.

    Fault firings are reported to [Educhip_obs] as the counter
    [fault.injected] labeled by site and kind (when telemetry is on). *)

type kind =
  | Crash  (** the step dies with an exception *)
  | Hang  (** the step blows its per-attempt work budget (a modeled
              timeout: guarded executors charge the budget to simulated
              time and treat the attempt as dead) *)
  | Corrupt  (** the step returns, but with a degraded result (e.g.
                 routing keeps its residual overflow); guarded executors
                 detect flow-level corruption and retry *)

val kind_name : kind -> string
(** ["crash"], ["hang"], ["corrupt"]. *)

val kind_of_string : string -> kind
(** Inverse of {!kind_name} (case-insensitive).
    @raise Invalid_argument on an unknown kind name. *)

type arming = {
  site : string;
  fault : kind;
  count : int;  (** how many probes this arming kills before it is spent *)
}

type plan = arming list

val arming : ?count:int -> string -> kind -> arming
(** [arming site kind] fires once; [~count] fires that many times. *)

val arming_of_string : string -> arming
(** Parse the CLI syntax [SITE:KIND\[@N\]], e.g. ["flow.routing:crash"]
    or ["place.anneal:hang@3"].
    @raise Invalid_argument on a malformed spec, an unknown kind, or a
    non-positive count. *)

val arming_to_string : arming -> string

(** {2 Wire-level fault sites}

    Probed by the daemons' connection layer ([Educhip_serve.Listener],
    under both [eduserved] and [eduroute]) rather than inside jobs —
    they model the {e transport} misbehaving, the way the flow sites
    model tools misbehaving. Arm them in the serving process (the
    [eduserved] [--inject] flag, or {!arm} before [Server.serve]);
    connection threads share the accept-loop domain's injector, worker
    domains never see it. Kind semantics at these sites:

    - {!serve_accept} + [Crash]: a freshly accepted connection is
      closed before reading a byte.
    - {!serve_read} + [Crash]: the connection drops after a request
      line is read, before any response (the client sees a mid-exchange
      disconnect). [Hang]: the server stalls before processing — the
      client's read deadline is what saves it.
    - {!serve_write} + [Crash]: the connection drops before the
      response is written. [Corrupt]: only a prefix of the response
      line is written before the drop (a torn write the client's
      decoder must reject).

    Under concurrent connections, firing budgets are shared without
    additional locking, so counts are exact only for serialized
    traffic — which is how the chaos tests drive them. *)

val serve_accept : string
(** ["serve.accept"] *)

val serve_read : string
(** ["serve.read"] *)

val serve_write : string
(** ["serve.write"] *)

val serve_sites : string list
(** The three wire sites above. *)

exception Injected of string * kind
(** [Injected (site, kind)] is raised by {!check} when an armed [Crash]
    or [Hang] fires. Guarded executors catch it; code that probes sites
    must let it escape. *)

val arm : seed:int -> plan -> unit
(** Install a fault plan for the current domain, replacing any previous
    one. The injector is domain-local (like the [Educhip_obs] sink), so
    parallel scheduler workers arm independently and a fresh domain
    starts disarmed. Armings accumulate per (site, kind): arming a site
    twice with counts 2 and 3 behaves like one arming with count 5. *)

val disarm : unit -> unit
(** Remove the plan. Probes return to their no-op fast path. *)

val active : unit -> bool

val with_plan : seed:int -> plan -> (unit -> 'a) -> 'a
(** [with_plan ~seed plan f] arms around [f], restoring the previous
    injector afterwards (also on exceptions). *)

val check : string -> unit
(** Probe a site. No-op unless the site is armed with a live [Crash] or
    [Hang], in which case one firing is consumed and {!Injected} raised.
    When both kinds are armed, the plan's RNG picks which fires first. *)

val corrupted : string -> bool
(** Probe a site for a [Corrupt] arming; [true] consumes one firing.
    Kernels use this to return a degraded-but-well-formed result. *)

val remaining : string -> int
(** Total unfired count across this site's armings (0 when disarmed) —
    test and report helper. *)
