(** Blocking client for the flow service — one connection, synchronous
    request/response.

    The protocol is strictly request/response on a single connection
    ({!Wire}), so the client is a thin wrapper: connect, write one
    line, read one line, decode. [eduflow submit/status/result] and the
    [bench --serve] load generator both drive this module; tests talk
    to an in-process server through it over a temp Unix socket.

    Two things make it fit for an unreliable transport:

    - {b deadlines}: every connect function takes [?connect_timeout_ms]
      (nonblocking connect + select) and [?read_timeout_ms]
      ([SO_RCVTIMEO] on the socket, so a stalled server surfaces as a
      transport [Error] instead of a hung client);
    - {b deterministic retries}: {!request_with_retry} reconnects and
      resubmits through a {!retry_policy} whose capped-exponential
      backoff is jittered by a {e seeded} {!Educhip_util.Rng} stream —
      no wall-clock randomness, so retry behavior is reproducible.
      Pair it with an idempotency key ({!Wire.submit_spec}) and a
      resubmission whose first acceptance was lost to a dropped
      connection is deduplicated server-side. *)

type t

val connect_unix :
  ?connect_timeout_ms:float -> ?read_timeout_ms:float -> string -> t
(** Connect to a Unix-domain socket path. *)

val connect_tcp :
  ?connect_timeout_ms:float -> ?read_timeout_ms:float -> ?host:string -> int -> t
(** Connect to TCP [host:port] (default host ["127.0.0.1"]). *)

val connect : ?connect_timeout_ms:float -> ?read_timeout_ms:float -> string -> t
(** Address syntax the CLI accepts: [PATH] (contains [/] or no [:]) for
    a Unix socket, [HOST:PORT] or [:PORT] for TCP. A connect that blows
    [connect_timeout_ms] raises [Unix.Unix_error (ETIMEDOUT, _, _)];
    with [read_timeout_ms] set, a response that never arrives turns
    into a transport [Error] from {!request}. *)

val request : t -> Wire.request -> (Wire.response, string) result
(** Send one request, await its response. [Error] covers transport
    failures (connection closed mid-exchange, read timeout) and
    undecodable replies. *)

val submit : t -> Wire.submit_spec -> (Wire.response, string) result

val await :
  ?poll_ms:float -> ?timeout_ms:float -> t -> string -> (Wire.response, string) result
(** Ask [Result id] with a wait ({!Wire.max_wait_ms}, cut to what is
    left of [timeout_ms] and to half the socket's read timeout) until
    the job reaches a terminal state, returning its [Job_result] — or a
    [Rejected] response verbatim (unknown id, say). A server that holds
    the request answers the moment the job finishes; after a
    non-terminal answer only the rest of [poll_ms] (default 50) since
    that request was sent is slept, so a server that ignores the wait
    is polled at most once per [poll_ms], as before.
    [Error "timeout ..."] if [timeout_ms] elapses first (default: wait
    forever); it comes within [timeout_ms] plus one poll. *)

val close : t -> unit

(** {1 Retries} *)

type retry_policy = {
  attempts : int;  (** retries {e after} the first try; 0 = no retries *)
  base_ms : float;  (** first retry's nominal delay *)
  cap_ms : float;  (** exponential growth saturates here *)
  seed : int;  (** jitter stream seed — same policy, same schedule *)
}

val default_retry_policy : retry_policy
(** 4 retries, 50 ms base, 2 s cap, seed 1. *)

val backoff_schedule : retry_policy -> float list
(** The exact delays (ms) a policy will sleep between attempts: drawn
    uniformly from [\[0, min cap_ms (base_ms * 2^i))] — {e full}
    jitter, so simultaneous failures don't re-synchronize on a shared
    half-delay floor — out of [Rng.create ~seed]. Exposed so tests can
    assert determinism and the cap without sleeping. *)

val request_with_retry :
  policy:retry_policy ->
  connect:(unit -> t) ->
  Wire.request ->
  (t * Wire.response, string) result
(** Connect and send, retrying the {e whole} attempt (fresh connection
    included) on connect failure or transport error, sleeping the
    {!backoff_schedule} delays between tries. On success returns the
    live connection (so the caller can keep polling on it) alongside
    the response; failed connections are closed. The last transport
    error is returned once attempts are exhausted.

    Only safe for requests that are idempotent from the server's point
    of view — [Submit] qualifies exactly when it carries an
    [idempotency_key]. *)

val submit_with_retry :
  policy:retry_policy ->
  connect:(unit -> t) ->
  Wire.submit_spec ->
  (t * Wire.response, string) result
(** [request_with_retry] on [Submit spec]. *)
