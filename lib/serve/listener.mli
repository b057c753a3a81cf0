(** The one connection layer under [eduserved] ({!Server}) and
    [eduroute] ([Educhip_cluster.Router]): socket opening, the accept
    loop, one thread per connection under a cap, newline-framed request
    lines with typed rejects, and the [serve.*] wire fault sites. A
    daemon supplies only [handle], [reject] and [stop]. Every bound is
    a constant, not a setting; besides the two below, a peer silent for
    30 s between requests is disconnected. *)

val max_line_bytes : int
(** 64 KiB: a longer request line gets a typed [bad_request], then a
    close. *)

val max_connections : int
(** 128: with this many open, the accept loop stops accepting until one
    closes, and further connects wait in the listen backlog. They are
    not refused: a client writes before it reads, so a reject written
    at accept time and followed by a close would be lost. *)

val listen_unix : path:string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket, replacing a stale socket
    file at [path].
    @raise Failure naming [path] if a file that is not a socket is
    there; it is left alone. *)

val with_socket :
  socket:string -> tcp:int option -> (Unix.file_descr -> string -> 'a) -> ('a, string) result
(** Listen on TCP 127.0.0.1:[port] if [tcp] is set, else on the Unix
    socket [socket]; run [f fd where] ([where] names the address); then
    close the listener and remove the socket file. [Error] says why the
    socket could not be opened. *)

type read = Line of string | Eof | Timed_out | Oversized

val read_request_line :
  Unix.file_descr -> pending:Buffer.t -> timeout_ms:float -> read
(** Read the next newline-framed line, waiting at most [timeout_ms] for
    each chunk. [pending] carries the partial tail between calls (one
    buffer per connection). A line over {!max_line_bytes}, terminated or
    not, is [Oversized]; a peer that closes mid-line is [Eof]. *)

type counts = {
  opened : int Atomic.t;
  closed : int Atomic.t;
  timeouts : int Atomic.t;  (** closed after 30 s of silence *)
  oversized : int Atomic.t;  (** closed after an oversized line *)
}
(** The connection counters the server exports as [serve.conn_*]. *)

val counts : unit -> counts

val serve :
  ?counts:counts ->
  stop:(unit -> bool) ->
  reject:(Wire.reject_reason -> unit) ->
  handle:(Wire.request -> Wire.response) ->
  Unix.file_descr ->
  unit
(** Accept connections until [stop ()] holds (polled every 50 ms), at
    most {!max_connections} open at once, each on its own thread with
    SIGINT and SIGTERM blocked. A connection answers each non-blank
    line with [handle]'s response, in order. An oversized line is
    answered [bad_request] and closes the connection; an undecodable
    one is answered [bad_request] and the connection stays usable;
    [reject] is told of both. An [accept] error does not end the loop.

    Returns once [stop ()] held and no response is being made or
    written; idle connections are left to their threads. The listener
    is not closed.

    Fault sites, armed in the calling domain: [serve.accept] crash
    closes a new connection; [serve.read] crash closes after a line is
    read, hang stalls 1 s first; [serve.write] crash closes before the
    response, corrupt writes half of it and closes. *)
