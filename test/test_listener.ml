module Wire = Educhip_serve.Wire
module Listener = Educhip_serve.Listener
module Files = Educhip_util.Files

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let read_line ?(timeout_ms = 5000.0) fd pending =
  Listener.read_request_line fd ~pending ~timeout_ms

let line_of = function
  | Listener.Line l -> l
  | Listener.Eof -> "<eof>"
  | Listener.Timed_out -> "<timed out>"
  | Listener.Oversized -> "<oversized>"

(* {1 The reader, over a socketpair} *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_reader_framing () =
  with_pair (fun a b ->
      let pending = Buffer.create 16 in
      send a "first\nsecond\nthi";
      Alcotest.(check string) "first line" "first" (line_of (read_line b pending));
      Alcotest.(check string) "second line, same write" "second" (line_of (read_line b pending));
      send a "rd\n";
      Alcotest.(check string) "tail joined across writes" "third" (line_of (read_line b pending));
      send a "torn";
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Alcotest.(check string) "eof mid-line" "<eof>" (line_of (read_line b pending)))

let test_reader_silent_peer () =
  with_pair (fun _ b ->
      let pending = Buffer.create 16 in
      Alcotest.(check string) "silent peer" "<timed out>"
        (line_of (read_line ~timeout_ms:50.0 b pending)))

let test_reader_line_bound () =
  with_pair (fun a b ->
      let pending = Buffer.create 16 in
      (* the writer runs beside the reader: the lines outgrow the
         socket buffer *)
      let writer =
        Thread.create
          (fun () ->
            send a (String.make Listener.max_line_bytes 'x' ^ "\n");
            send a (String.make (Listener.max_line_bytes + 1) 'y' ^ "\n"))
          ()
      in
      Alcotest.(check int) "a line at the bound is read"
        Listener.max_line_bytes
        (String.length (line_of (read_line b pending)));
      Alcotest.(check string) "one byte past it, newline and all" "<oversized>"
        (line_of (read_line b pending));
      Thread.join writer)

(* {1 Listener.serve, over a temp Unix socket} *)

(* Status answers with its own id, so answers can be matched to
   requests; Health answers a fixed report. *)
let echo = function
  | Wire.Status id -> Wire.Job_status { id; state = Wire.Queued; verdict = None }
  | _ ->
    Wire.Health_report
      { uptime_ms = 0.0; queue_depth = 0; running = 0; completed = 0; failed = 0;
        draining = false; workers = 1 }

type served = {
  connect : unit -> Unix.file_descr;
  returned : unit -> unit;  (* wait for [serve] to return *)
  rejects : unit -> string list;
}

let with_listener ?(handle = fun _ -> echo) f =
  let dir = Filename.temp_dir "educhip-listener" "" in
  let path = Filename.concat dir "l.sock" in
  let listen_fd = Listener.listen_unix ~path in
  let stopped = Atomic.make false in
  let mutex = Mutex.create () in
  let rejects = ref [] in
  let reject r = Mutex.protect mutex (fun () -> rejects := Wire.reject_reason_name r :: !rejects) in
  let thread =
    Thread.create
      (fun () ->
        Listener.serve ~stop:(fun () -> Atomic.get stopped) ~reject
          ~handle:(handle stopped) listen_fd)
      ()
  in
  let joined = ref false in
  let returned () =
    if not !joined then begin
      Thread.join thread;
      joined := true
    end
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stopped true;
      returned ();
      Unix.close listen_fd;
      Files.rm_rf dir)
    (fun () ->
      f { connect; returned; rejects = (fun () -> Mutex.protect mutex (fun () -> List.rev !rejects)) })

let request_line r = Wire.encode_request r ^ "\n"

let answer fd pending =
  match read_line fd pending with
  | Listener.Line l -> (
    match Wire.decode_response l with
    | Ok r -> Wire.encode_response r
    | Error e -> "undecodable: " ^ e)
  | other -> line_of other

let status id = Wire.encode_response (Wire.Job_status { id; state = Wire.Queued; verdict = None })

let is_bad_request s =
  match Wire.decode_response s with
  | Ok (Wire.Rejected { reason = Wire.Bad_request _; _ }) -> true
  | _ -> false

let test_serve_in_order () =
  with_listener (fun l ->
      let c = l.connect () in
      let pending = Buffer.create 64 in
      send c (request_line (Wire.Status "a") ^ request_line (Wire.Status "b"));
      Alcotest.(check string) "first answer" (status "a") (answer c pending);
      Alcotest.(check string) "second answer" (status "b") (answer c pending);
      Unix.close c)

let test_serve_blank_lines () =
  with_listener (fun l ->
      let c = l.connect () in
      let pending = Buffer.create 64 in
      send c ("\n  \n\t\n" ^ request_line (Wire.Status "x"));
      Alcotest.(check string) "only the request is answered" (status "x") (answer c pending);
      Alcotest.(check string) "nothing else" "<timed out>"
        (line_of (read_line ~timeout_ms:100.0 c pending));
      Unix.close c)

let test_serve_oversized () =
  with_listener (fun l ->
      let c = l.connect () in
      let pending = Buffer.create 64 in
      let writer =
        Thread.create (fun () -> send c (String.make (Listener.max_line_bytes + 1) 'z' ^ "\n")) ()
      in
      let a = answer c pending in
      Thread.join writer;
      Alcotest.(check bool) ("typed bad_request: " ^ a) true (is_bad_request a);
      Alcotest.(check string) "then closed" "<eof>" (line_of (read_line c pending));
      Alcotest.(check (list string)) "reject counted" [ "bad_request" ] (l.rejects ());
      Unix.close c)

let test_serve_undecodable () =
  with_listener (fun l ->
      let c = l.connect () in
      let pending = Buffer.create 64 in
      send c "this is not json\n";
      let a = answer c pending in
      Alcotest.(check bool) ("typed bad_request: " ^ a) true (is_bad_request a);
      send c (request_line (Wire.Status "after"));
      Alcotest.(check string) "connection still usable" (status "after") (answer c pending);
      Alcotest.(check (list string)) "reject counted" [ "bad_request" ] (l.rejects ());
      Unix.close c)

let test_serve_eof_mid_line () =
  with_listener (fun l ->
      let c = l.connect () in
      let pending = Buffer.create 64 in
      send c "{\"schema\":1,\"op\":\"hea";
      Unix.shutdown c Unix.SHUTDOWN_SEND;
      Alcotest.(check string) "no response, just the close" "<eof>"
        (line_of (read_line c pending));
      Unix.close c)

(* the stop lands while a request is inside [handle]: [serve] must not
   return before that request's answer is on the wire *)
let test_serve_answers_before_return () =
  let handle stopped req =
    Atomic.set stopped true;
    Thread.delay 0.2;
    echo req
  in
  with_listener ~handle (fun l ->
      let c = l.connect () in
      send c (request_line (Wire.Status "slow"));
      l.returned ();
      let ready, _, _ = Unix.select [ c ] [] [] 0.0 in
      Alcotest.(check bool) "answer written before serve returned" true (ready <> []);
      Alcotest.(check string) "the answer" (status "slow") (answer c (Buffer.create 64));
      Unix.close c)

let test_listen_unix_refuses_non_socket () =
  let dir = Filename.temp_dir "educhip-listener" "" in
  Fun.protect
    ~finally:(fun () -> Files.rm_rf dir)
    (fun () ->
      let notes = Filename.concat dir "notes.txt" in
      Out_channel.with_open_bin notes (fun oc -> output_string oc "keep me");
      (match Listener.listen_unix ~path:notes with
      | fd ->
        Unix.close fd;
        Alcotest.fail "a regular file was replaced by a socket"
      | exception Failure msg ->
        Alcotest.(check bool) ("names the path: " ^ msg) true
          (String.starts_with ~prefix:notes msg));
      Alcotest.(check string) "file intact" "keep me"
        (In_channel.with_open_bin notes In_channel.input_all);
      (* a socket file left by a dead listener is replaced *)
      let sock = Filename.concat dir "stale.sock" in
      Unix.close (Listener.listen_unix ~path:sock);
      Alcotest.(check bool) "stale socket file left behind" true (Sys.file_exists sock);
      let fd = Listener.listen_unix ~path:sock in
      let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect c (Unix.ADDR_UNIX sock);
      Unix.close c;
      Unix.close fd;
      (* and with_socket reports the refusal instead of raising *)
      match Listener.with_socket ~socket:notes ~tcp:None (fun _ _ -> ()) with
      | Ok () -> Alcotest.fail "with_socket listened over a regular file"
      | Error msg ->
        Alcotest.(check bool) ("error names the path: " ^ msg) true
          (String.starts_with ~prefix:notes msg))

let suite =
  [
    Alcotest.test_case "reader framing over a socketpair" `Quick test_reader_framing;
    Alcotest.test_case "reader times out a silent peer" `Quick test_reader_silent_peer;
    Alcotest.test_case "reader line bound" `Quick test_reader_line_bound;
    Alcotest.test_case "two requests in one write answered in order" `Quick test_serve_in_order;
    Alcotest.test_case "blank lines skipped" `Quick test_serve_blank_lines;
    Alcotest.test_case "oversized line: bad_request then close" `Quick test_serve_oversized;
    Alcotest.test_case "undecodable line: bad_request, still usable" `Quick
      test_serve_undecodable;
    Alcotest.test_case "eof mid-line gets no response" `Quick test_serve_eof_mid_line;
    Alcotest.test_case "stop mid-request still answers" `Quick test_serve_answers_before_return;
    Alcotest.test_case "listen_unix replaces only sockets" `Quick
      test_listen_unix_refuses_non_socket;
  ]
