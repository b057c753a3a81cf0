module Mclock = Educhip_util.Mclock
module Rng = Educhip_util.Rng

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let of_fd fd = { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* A connect that honors a deadline: flip the socket nonblocking, start
   the connect, select for writability, then read SO_ERROR — the
   classic dance, because [Unix.connect] itself offers no timeout. *)
let timed_connect ?connect_timeout_ms fd addr =
  match connect_timeout_ms with
  | None -> Unix.connect fd addr
  | Some ms ->
    Unix.set_nonblock fd;
    (match Unix.connect fd addr with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
      let _, writable, _ = Unix.select [] [ fd ] [] (ms /. 1000.0) in
      if writable = [] then raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""));
      (match Unix.getsockopt_error fd with
      | None -> ()
      | Some err -> raise (Unix.Unix_error (err, "connect", ""))));
    Unix.clear_nonblock fd

let set_read_timeout fd ms =
  if ms > 0.0 then Unix.setsockopt_float fd Unix.SO_RCVTIMEO (ms /. 1000.0)

let with_socket domain f =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try f fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect_unix ?connect_timeout_ms ?read_timeout_ms path =
  with_socket Unix.PF_UNIX (fun fd ->
      timed_connect ?connect_timeout_ms fd (Unix.ADDR_UNIX path);
      Option.iter (set_read_timeout fd) read_timeout_ms;
      of_fd fd)

let connect_tcp ?connect_timeout_ms ?read_timeout_ms ?(host = "127.0.0.1") port =
  with_socket Unix.PF_INET (fun fd ->
      timed_connect ?connect_timeout_ms fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Option.iter (set_read_timeout fd) read_timeout_ms;
      of_fd fd)

let connect ?connect_timeout_ms ?read_timeout_ms addr =
  match String.rindex_opt addr ':' with
  | Some i when not (String.contains addr '/') ->
    let host = String.sub addr 0 i in
    let port = String.sub addr (i + 1) (String.length addr - i - 1) in
    (match int_of_string_opt port with
    | Some port when port > 0 ->
      if host = "" then connect_tcp ?connect_timeout_ms ?read_timeout_ms port
      else connect_tcp ?connect_timeout_ms ?read_timeout_ms ~host port
    | _ -> invalid_arg (Printf.sprintf "Client.connect: bad port in %S" addr))
  | _ -> connect_unix ?connect_timeout_ms ?read_timeout_ms addr

let request t req =
  match
    output_string t.oc (Wire.encode_request req);
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic
  with
  | line -> Wire.decode_response line
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_blocked_io -> Error "connection error: read timed out"
  | exception Sys_error msg -> Error ("connection error: " ^ msg)
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connection error: " ^ Unix.error_message e)

let submit t spec = request t (Wire.Submit spec)

(* Each [Result] asks the server to hold it until the job is terminal,
   for no longer than what is left of [timeout_ms] or half the socket's
   read timeout, so the hold can never trip either. A server that
   ignores the wait answers at once, and the rest of [poll_ms] is slept
   as before: at most one request per poll either way. *)
let await ?(poll_ms = 50.0) ?timeout_ms t id =
  let t0 = Mclock.now_ms () in
  let read_cap_ms =
    match Unix.getsockopt_float t.fd Unix.SO_RCVTIMEO with
    | s when s > 0.0 -> s *. 500.0
    | _ | (exception Unix.Unix_error _) -> Wire.max_wait_ms
  in
  let rec poll () =
    let sent = Mclock.now_ms () in
    let left =
      match timeout_ms with Some b -> b -. (sent -. t0) | None -> Wire.max_wait_ms
    in
    let wait = Float.min Wire.max_wait_ms (Float.min left read_cap_ms) in
    match request t (Wire.Result { id; wait_ms = (if wait > 0.0 then Some wait else None) }) with
    | Error _ as e -> e
    | Ok (Wire.Job_result _ as r) -> Ok r
    | Ok (Wire.Rejected _ as r) -> Ok r
    | Ok _ ->
      if match timeout_ms with Some b -> Mclock.elapsed_ms t0 > b | None -> false then
        Error (Printf.sprintf "timeout: job %s not terminal after %.0f ms" id
                 (Option.get timeout_ms))
      else begin
        let nap_ms = poll_ms -. Mclock.elapsed_ms sent in
        if nap_ms > 0.0 then Thread.delay (nap_ms /. 1000.0);
        poll ()
      end
  in
  poll ()

let close t =
  (try flush t.oc with Sys_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* {1 Retries} *)

type retry_policy = { attempts : int; base_ms : float; cap_ms : float; seed : int }

let default_retry_policy = { attempts = 4; base_ms = 50.0; cap_ms = 2000.0; seed = 1 }

(* Capped exponential backoff with deterministic full jitter: delay i
   is drawn uniformly from [0, min(cap, base * 2^i)) out of a [Rng]
   stream seeded by the policy. Full jitter, not the earlier
   [0.5, 1.0) x full equal jitter: with a floor of half the nominal
   delay, a fleet of clients knocked over by the same outage retries
   inside the same half-window and re-collides every round, while the
   full range spreads attempts across the whole window. No wall-clock
   randomness — a given policy always produces the same schedule
   (testable, and two clients with different seeds de-synchronize). *)
let backoff_schedule policy =
  let rng = Rng.create ~seed:policy.seed in
  List.init (max 0 policy.attempts) (fun i ->
      let full = Float.min policy.cap_ms (policy.base_ms *. (2.0 ** float_of_int i)) in
      Rng.float rng full)

let connect_result connect =
  match connect () with
  | t -> Ok t
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e))
  | exception Sys_error msg -> Error ("connect: " ^ msg)

let request_with_retry ~policy ~connect req =
  let rec attempt delays =
    let outcome =
      match connect_result connect with
      | Error _ as e -> e
      | Ok t -> (
        match request t req with
        | Ok r -> Ok (t, r)
        | Error _ as e ->
          close t;
          e)
    in
    match (outcome, delays) with
    | Ok _, _ -> outcome
    | Error _, [] -> outcome
    | Error _, d :: rest ->
      Thread.delay (d /. 1000.0);
      attempt rest
  in
  attempt (backoff_schedule policy)

let submit_with_retry ~policy ~connect spec =
  request_with_retry ~policy ~connect (Wire.Submit spec)
