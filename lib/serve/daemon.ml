module Mclock = Educhip_util.Mclock
module Files = Educhip_util.Files

type t = { pid : int; socket : string; log : string }

(* the harnesses measure durability and sharding, not admission control:
   gates roomy enough that nothing is ever refused *)
let roomy_admission =
  [
    "--max-queue"; "1024";
    "--basic-rate"; "100000"; "--basic-burst"; "100000";
    "--basic-inflight"; "1024";
  ]

let start ~exe ~socket ~cache_dir ~log ~workers ?journal () =
  let args =
    [ exe; "--socket"; socket; "--workers"; string_of_int workers; "--cache-dir"; cache_dir ]
    @ roomy_admission
    @ match journal with Some j -> [ "--journal"; j ] | None -> []
  in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close log_fd)
      (fun () -> Unix.create_process exe (Array.of_list args) null log_fd log_fd)
  in
  { pid; socket; log }

let log_tail d =
  match Files.read_file d.log with
  | Some s ->
    let n = String.length s in
    if n <= 2000 then s else "..." ^ String.sub s (n - 2000) 2000
  | None -> "(no daemon log)"

(* a cold replica replays its journal before it opens the socket *)
let ready_timeout_ms = 60_000.0

let wait_ready d =
  let t0 = Mclock.now_ms () in
  let fail why = failwith (Printf.sprintf "daemon %s %s:\n%s" d.socket why (log_tail d)) in
  let rec loop () =
    match Client.connect_unix d.socket with
    | c -> Client.close c
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ | (exception Unix.Unix_error _) -> fail "died during startup");
      if Mclock.elapsed_ms t0 > ready_timeout_ms then fail "not ready in time"
      else begin
        Thread.delay 0.05;
        loop ()
      end
  in
  loop ()

let reap d = try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

let drain d =
  (try
     let c = Client.connect_unix d.socket in
     ignore (Client.request c Wire.Drain);
     Client.close c
   with Unix.Unix_error _ | Sys_error _ -> ());
  reap d

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d
