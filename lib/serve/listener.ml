module Fault = Educhip_fault.Fault

let max_line_bytes = 65_536
let read_timeout_ms = 30_000.0
let max_connections = 128

(* {1 Sockets} *)

let bound domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    (* a no-op on Unix sockets; lets a restarted TCP daemon rebind *)
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    fd
  with e ->
    Unix.close fd;
    raise e

(* Only a socket file is ever removed: [--socket notes.txt] must not
   delete notes.txt. *)
let unlink_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket; not replacing it" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let listen_unix ~path =
  unlink_socket path;
  bound Unix.PF_UNIX (Unix.ADDR_UNIX path)

let with_socket ~socket ~tcp f =
  let where, listen =
    match tcp with
    | Some port ->
      ( Printf.sprintf "tcp 127.0.0.1:%d" port,
        fun () -> bound Unix.PF_INET (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) )
    | None -> ("unix " ^ socket, fun () -> listen_unix ~path:socket)
  in
  match listen () with
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot listen on %s: %s" where (Unix.error_message e))
  | fd ->
    let cleanup () =
      Unix.close fd;
      if tcp = None then try unlink_socket socket with Failure _ | Unix.Unix_error _ -> ()
    in
    Ok (Fun.protect ~finally:cleanup (fun () -> f fd where))

(* {1 Framing}

   [input_line] over a channel can neither bound the line (a hostile
   peer could feed gigabytes before the first newline) nor time out (a
   silent peer parks the thread forever), so connections read the fd
   directly. *)

type read = Line of string | Eof | Timed_out | Oversized

let read_request_line fd ~pending ~timeout_ms =
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let data = Buffer.contents pending in
    match String.index_opt data '\n' with
    | Some i when i > max_line_bytes -> Oversized
    | Some i ->
      Buffer.clear pending;
      Buffer.add_substring pending data (i + 1) (String.length data - i - 1);
      Line (String.sub data 0 i)
    | None when String.length data > max_line_bytes -> Oversized
    | None -> (
      match Unix.select [ fd ] [] [] (timeout_ms /. 1000.0) with
      | [], _, _ -> Timed_out
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Eof
        | n ->
          Buffer.add_subbytes pending chunk 0 n;
          loop ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Eof))
  in
  loop ()

(* {1 Serving} *)

type counts = {
  opened : int Atomic.t;
  closed : int Atomic.t;
  timeouts : int Atomic.t;
  oversized : int Atomic.t;
}

let counts () =
  let zero () = Atomic.make 0 in
  { opened = zero (); closed = zero (); timeouts = zero (); oversized = zero () }

let write_line fd line = ignore (Unix.write_substring fd line 0 (String.length line))

(* [answering] brackets each response, with the handle that made it,
   so [serve] can wait them out *)
let connection ~counts ~reject ~handle ~answering fd =
  (* A SIGTERM delivered to a thread parked in select or read never
     reaches an OCaml safepoint, so its handler (and the drain) would
     never run. Blocked here, it goes to a thread that polls. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
  let respond resp =
    let line = Wire.encode_response resp in
    (* [Crash] drops the connection before any response byte; [Corrupt]
       emits a torn prefix, which the client's decoder must reject *)
    Fault.check Fault.serve_write;
    if Fault.corrupted Fault.serve_write then begin
      write_line fd (String.sub line 0 (String.length line / 2));
      raise Exit
    end
    else write_line fd (line ^ "\n")
  in
  let bad_request msg =
    let reason = Wire.Bad_request msg in
    reject reason;
    Wire.Rejected { reason; retry_after_ms = None }
  in
  let pending = Buffer.create 256 in
  let rec loop () =
    match read_request_line fd ~pending ~timeout_ms:read_timeout_ms with
    | Eof -> ()
    | Timed_out -> Atomic.incr counts.timeouts
    | Oversized ->
      (* the peer is outside protocol bounds: answer, then close without
         reading the rest *)
      Atomic.incr counts.oversized;
      answering (fun () ->
          respond (bad_request (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)))
    | Line line when String.trim line = "" -> loop ()
    | Line line ->
      (* the request was read; [Crash] closes, [Hang] stalls, then closes *)
      (match Fault.check Fault.serve_read with
      | () -> ()
      | exception Fault.Injected (_, Fault.Hang) ->
        Thread.delay 1.0;
        raise Exit);
      answering (fun () ->
          respond
            (match Wire.decode_request line with
            | Error msg -> bad_request msg
            | Ok req -> handle req));
      loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.incr counts.closed;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Fault.check Fault.serve_accept;
        loop ()
      with End_of_file | Sys_error _ | Exit | Unix.Unix_error _ | Fault.Injected _ -> ())

let serve ?(counts = counts ()) ~stop ~reject ~handle listen_fd =
  let busy = Atomic.make 0 in
  let answering f =
    Atomic.incr busy;
    Fun.protect f ~finally:(fun () -> Atomic.decr busy)
  in
  let rec accept_loop () =
    if not (stop ()) then begin
      let open_ = Atomic.get counts.opened - Atomic.get counts.closed in
      let watched = if open_ < max_connections then [ listen_fd ] else [] in
      (* the 50 ms timeout bounds how long a stop waits to be noticed,
         and how long a freed slot waits to be reused *)
      (try
         match Unix.select watched [] [] 0.05 with
         | [], _, _ -> ()
         | _ ->
           let fd, _ = Unix.accept ~cloexec:true listen_fd in
           Atomic.incr counts.opened;
           ignore (Thread.create (connection ~counts ~reject ~handle ~answering) fd)
       with
      | Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | Unix.Unix_error _ ->
        (* ECONNABORTED, EMFILE, ...: the listener itself is fine *)
        Thread.delay 0.05);
      accept_loop ()
    end
  in
  accept_loop ();
  while Atomic.get busy > 0 do
    Thread.delay 0.005
  done
