(* @servecheck smoke: an in-process eduserved on a temp Unix socket.

   A) Correctness: a 4-job two-tenant mix submitted serially (one
      client, fresh cache) and concurrently (4 clients, fresh cache)
      must produce identical per-job verdict+PPA signatures, and a
      duplicate submission must be served from the cache at admission
      (accepted with cached=true).
   B) Admission: with a zero queue bound every cold submit is rejected
      with the typed `overloaded` response; with a one-token bucket the
      second rapid submit is rejected `rate_limited`.
   C) Drain under load: jobs accepted right before a drain request all
      reach the ledger with an ok verdict — a drain loses no accepted
      job.
   D) Connection hardening: a request line beyond the configured bound
      is rejected with a typed bad_request, and the next connection
      still works.
   E) Wire faults: with a one-shot corrupt arming on serve.write the
      first response is torn mid-line; the retrying client resubmits
      under the same idempotency key and must get the original job
      back (duplicate=true) — the crash-retry loop executes once.
   F) Connection cap: with Listener.max_connections connections open
      and answered, one more connection's request waits unanswered in
      the backlog until one of them closes, and the daemon stays
      healthy. *)

module Cache = Educhip_sched.Cache
module Sched = Educhip_sched.Sched
module Flow = Educhip_flow.Flow
module Runlog = Educhip_obs.Runlog
module Wire = Educhip_serve.Wire
module Ratelimit = Educhip_serve.Ratelimit
module Server = Educhip_serve.Server
module Listener = Educhip_serve.Listener
module Client = Educhip_serve.Client
module Fault = Educhip_fault.Fault
module Files = Educhip_util.Files

let socket = Filename.concat (Filename.get_temp_dir_name ()) "educhip-servecheck.sock"

(* design, preset, tenant — two tenants, one duplicate spec (the last
   repeats the first) so the concurrent phase exercises a warm serve *)
let jobs =
  [
    ("counter", "open", "uni-a");
    ("gray8", "teaching", "uni-b");
    ("mult4", "open", "uni-a");
    ("adder8", "open", "uni-b");
  ]

let spec (design, preset, tenant) = { (Wire.submit ~tenant design) with Wire.preset }

(* run one server around [f]; returns [f]'s result after a clean drain *)
let with_server cfg f =
  let server = Server.create cfg in
  let listen_fd = Listener.listen_unix ~path:socket in
  let thread = Thread.create (fun () -> Server.serve server listen_fd) () in
  let result = f () in
  let c = Client.connect_unix socket in
  ignore (Client.request c Wire.Drain);
  Client.close c;
  Thread.join thread;
  Unix.close listen_fd;
  if Sys.file_exists socket then Sys.remove socket;
  result

let result_signature = function
  | Ok (Wire.Job_result { verdict; ppa; _ }) ->
    let ppa = match ppa with Some p -> Flow.ppa_signature p | None -> "-" in
    Printf.sprintf "%s [%s]" verdict ppa
  | Ok r -> "unexpected: " ^ Wire.encode_response r
  | Error msg -> "error: " ^ msg

let submit_and_await c s =
  match Client.submit c s with
  | Ok (Wire.Accepted { id; _ }) -> result_signature (Client.await c id)
  | Ok r -> "rejected: " ^ Wire.encode_response r
  | Error msg -> "error: " ^ msg

let () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "servecheck  %-38s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let cache_dir phase = "servecheck-cache-" ^ phase in
  let cfg ?cache ?ledger ?(max_queue = 64) ?basic () =
    {
      Server.default_config with
      Server.workers = 2;
      max_queue;
      basic = Option.value basic ~default:Ratelimit.basic_defaults;
      cache;
      ledger;
    }
  in

  (* A: serial vs concurrent, plus a warm duplicate *)
  Files.rm_rf (cache_dir "serial");
  Files.rm_rf (cache_dir "conc");
  let serial =
    with_server (cfg ~cache:(Cache.create ~dir:(cache_dir "serial") ()) ()) (fun () ->
        let c = Client.connect_unix socket in
        let sigs = List.map (fun j -> submit_and_await c (spec j)) jobs in
        Client.close c;
        sigs)
  in
  let concurrent, warm_served =
    with_server (cfg ~cache:(Cache.create ~dir:(cache_dir "conc") ()) ()) (fun () ->
        let results = Array.make (List.length jobs) "" in
        let threads =
          List.mapi
            (fun i j ->
              Thread.create
                (fun () ->
                  let c = Client.connect_unix socket in
                  results.(i) <- submit_and_await c (spec j);
                  Client.close c)
                ())
            jobs
        in
        List.iter Thread.join threads;
        (* duplicate of job 0: the cache already holds it, so admission
           must answer without a worker — accepted with cached=true *)
        let c = Client.connect_unix socket in
        let warm =
          match Client.submit c (spec (List.hd jobs)) with
          | Ok (Wire.Accepted { id; cached; _ }) ->
            cached
            && result_signature (Client.await c id) = results.(0)
          | _ -> false
        in
        Client.close c;
        (Array.to_list results, warm))
  in
  Files.rm_rf (cache_dir "serial");
  Files.rm_rf (cache_dir "conc");
  List.iteri
    (fun i (s, c) ->
      let name = Printf.sprintf "serial = concurrent (job %d)" i in
      check name (s = c && String.length s > 0 && not (String.contains s ':')))
    (List.combine serial concurrent);
  check "duplicate served from cache" warm_served;

  (* B: typed rejections over the socket *)
  let overloaded =
    with_server (cfg ~max_queue:0 ()) (fun () ->
        let c = Client.connect_unix socket in
        let r = Client.submit c (spec (List.hd jobs)) in
        Client.close c;
        match r with
        | Ok (Wire.Rejected { reason = Wire.Overloaded; _ }) -> true
        | _ -> false)
  in
  check "zero queue bound rejects overloaded" overloaded;
  let rate_limited =
    let basic =
      { Ratelimit.rate_per_s = 0.001; burst = 1.0; max_inflight = 8; fair_weight = 1.0 }
    in
    with_server (cfg ~basic ()) (fun () ->
        let c = Client.connect_unix socket in
        let first = Client.submit c (spec ("counter", "open", "t")) in
        let second = Client.submit c (spec ("gray8", "open", "t")) in
        Client.close c;
        match (first, second) with
        | Ok (Wire.Accepted _), Ok (Wire.Rejected { reason = Wire.Rate_limited; _ }) ->
          true
        | _ -> false)
  in
  check "empty bucket rejects rate_limited" rate_limited;

  (* C: drain under load loses no accepted job *)
  let ledger = "servecheck-ledger.jsonl" in
  Files.rm_rf ledger;
  let roomy =
    { Ratelimit.rate_per_s = 100.0; burst = 16.0; max_inflight = 16; fair_weight = 1.0 }
  in
  let accepted =
    with_server (cfg ~ledger ~basic:roomy ()) (fun () ->
        let c = Client.connect_unix socket in
        (* unique seeds: all cold, so the workers are still busy when
           the drain lands *)
        let accepted =
          List.concat_map
            (fun seed ->
              let s = { (spec (List.hd jobs)) with Wire.fault_seed = seed } in
              match Client.submit c s with
              | Ok (Wire.Accepted { id; _ }) -> [ id ]
              | _ -> [])
            [ 101; 102; 103; 104; 105; 106 ]
        in
        Client.close c;
        accepted)
  in
  let records = Runlog.load ~path:ledger in
  Files.rm_rf ledger;
  check
    (Printf.sprintf "drain kept all %d accepted jobs" (List.length accepted))
    (List.length accepted = 6
    && List.length records = List.length accepted
    && List.for_all (fun (r : Runlog.record) -> r.Runlog.verdict = "ok") records);

  (* D: the request-line bound closes the door on runaway input *)
  let oversized =
    with_server (cfg ()) (fun () ->
        let c = Client.connect_unix socket in
        let huge = { (spec (List.hd jobs)) with Wire.design = String.make 70_000 'a' } in
        let r = Client.submit c huge in
        Client.close c;
        let first_rejected =
          match r with
          | Ok (Wire.Rejected { reason = Wire.Bad_request _; _ }) -> true
          | _ -> false
        in
        (* the oversized line cost only its own connection *)
        let c = Client.connect_unix socket in
        let healthy =
          match Client.request c Wire.Health with
          | Ok (Wire.Health_report _) -> true
          | _ -> false
        in
        Client.close c;
        first_rejected && healthy)
  in
  check "oversized line rejected bad_request" oversized;

  (* E: torn response + idempotent retry = exactly one execution *)
  let torn_write_retry =
    Fault.arm ~seed:7 [ Fault.arming_of_string "serve.write:corrupt@1" ];
    Fun.protect ~finally:Fault.disarm (fun () ->
        with_server (cfg ()) (fun () ->
            let s =
              {
                (spec ("counter", "open", "uni-a")) with
                Wire.idempotency_key = Some "servecheck-torn";
              }
            in
            let policy =
              { Client.default_retry_policy with Client.attempts = 4; base_ms = 10.0 }
            in
            match
              Client.submit_with_retry ~policy
                ~connect:(fun () -> Client.connect_unix socket)
                s
            with
            | Ok (c, Wire.Accepted { id; duplicate; _ }) ->
              (* the torn first answer already admitted the job, so the
                 retry must land on the same id, not a second run *)
              let finished = result_signature (Client.await c id) in
              Client.close c;
              duplicate && String.length finished > 0 && finished.[0] = 'o'
            | Ok (c, r) ->
              Client.close c;
              Printf.printf "servecheck  torn-write retry got: %s\n%!"
                (Wire.encode_response r);
              false
            | Error msg ->
              Printf.printf "servecheck  torn-write retry error: %s\n%!" msg;
              false))
  in
  check "torn write retried idempotently" torn_write_retry;

  (* F: past the cap the next connection waits, it is not refused *)
  let cap = with_server (cfg ()) (fun () -> Conncap.probe socket) in
  check (Printf.sprintf "%d connections answered" Listener.max_connections)
    cap.Conncap.all_answered;
  check "one more waits unanswered 200 ms" cap.Conncap.extra_waited;
  check "answered once a slot frees" cap.Conncap.extra_answered;
  check "daemon healthy after the cap" cap.Conncap.healthy;

  if !failures > 0 then begin
    Printf.printf "servecheck: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "servecheck: all checks passed"
