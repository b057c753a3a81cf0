module Wire = Educhip_serve.Wire
module Ratelimit = Educhip_serve.Ratelimit
module Server = Educhip_serve.Server
module Obs = Educhip_obs.Obs
module Jsonout = Educhip_obs.Jsonout
module Runlog = Educhip_obs.Runlog
module Tracectx = Educhip_obs.Tracectx
module Slo = Educhip_obs.Slo
module Daemon = Educhip_serve.Daemon
module Listener = Educhip_serve.Listener
module Client = Educhip_serve.Client
module Journal = Educhip_serve.Journal

let req_roundtrip r =
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' -> r' = r
  | Error msg -> Alcotest.failf "decode_request: %s" msg

let test_wire_request_roundtrip () =
  let full =
    {
      Wire.design = "alu8";
      tenant = "uni-a";
      preset = "commercial";
      node = "edu28";
      clock_ps = Some 1250.0;
      priority = 3;
      fault_seed = 7;
      retries = Some 2;
      inject = [ "flow.routing:crash@2"; "place.anneal:hang" ];
      deadline_ms = Some 500.0;
      idempotency_key = Some "course-ex3-uni-a-42";
      trace = Some (Tracectx.make ~parent_span:"client-submit" "trace-0af1");
      extra = [];
    }
  in
  List.iter
    (fun r -> Alcotest.(check bool) (Wire.encode_request r) true (req_roundtrip r))
    [
      Wire.Submit (Wire.submit "counter");
      Wire.Submit (Wire.submit ~tenant:"uni-b" "mult8");
      Wire.Submit full;
      Wire.Submit { (Wire.submit "counter") with Wire.trace = Some (Tracectx.generate ()) };
      Wire.Status "j-000042";
      Wire.Result "j-000000";
      Wire.Health;
      Wire.Metrics;
      Wire.Stats;
      Wire.Drain;
    ]

let resp_equal a b =
  (* Job_result carries a Runlog.record; compare via its JSON rendering
     so the check does not depend on physical equality of floats inside *)
  let render r =
    match r with
    | Wire.Job_result { record; _ } ->
      Wire.encode_response r ^ Jsonout.to_string (Runlog.to_json record)
    | _ -> Wire.encode_response r
  in
  render a = render b

let test_wire_response_roundtrip () =
  let record =
    Runlog.make ~design:"alu8" ~node:"edu130" ~preset:"open" ~verdict:"ok"
      ~total_wall_ms:123.5 ~injected:[ "flow.routing:crash" ] ~fault_seed:3
      ~max_retries:1 ()
  in
  let ppa =
    {
      Educhip_flow.Flow.area_um2 = 1525.25;
      cells = 268;
      fmax_mhz = 650.75;
      wns_ps = 738.0;
      total_power_uw = 381.5;
      wirelength_um = 9001.0;
      drc_clean = true;
    }
  in
  let events =
    [
      { Tracectx.name = "serve.admission"; cat = "serve"; ts_us = 1000.0;
        dur_us = 12.5; tid = Tracectx.tid_server;
        args = [ ("trace_id", Obs.Str "trace-0af1"); ("decision", Obs.Str "queued") ] };
      { Tracectx.name = "flow.run"; cat = "flow"; ts_us = 1100.0; dur_us = 1500.0;
        tid = Tracectx.tid_worker 0; args = [ ("design", Obs.Str "alu8") ] };
    ]
  in
  let roundtrip r =
    match Wire.decode_response (Wire.encode_response r) with
    | Ok r' -> resp_equal r r'
    | Error msg -> Alcotest.failf "decode_response: %s" msg
  in
  List.iter
    (fun r -> Alcotest.(check bool) (Wire.encode_response r) true (roundtrip r))
    [
      Wire.Accepted { id = "j-000001"; tier = "advanced"; cached = true; duplicate = false };
      Wire.Accepted { id = "j-000007"; tier = "basic"; cached = false; duplicate = true };
      Wire.Job_status { id = "j-000001"; state = Wire.Running; verdict = None };
      Wire.Job_status { id = "j-000001"; state = Wire.Failed; verdict = Some "failed(x)" };
      Wire.Job_result
        {
          id = "j-000002";
          verdict = "ok";
          from_cache = false;
          exec_ms = 157.625;
          wait_ms = 3.5;
          ppa = Some ppa;
          record;
          trace_events = events;
        };
      Wire.Job_result
        {
          id = "j-000003";
          verdict = "failed(deadline_exceeded)";
          from_cache = false;
          exec_ms = 0.0;
          wait_ms = 600.0;
          ppa = None;
          record;
          trace_events = [];
        };
      Wire.Stats_report
        {
          uptime_ms = 2500.0;
          queue_depth = 1;
          running = 2;
          completed = 9;
          failed = 1;
          rejects = [ ("overloaded", 3); ("rate_limited", 1) ];
          tenants =
            [
              { Wire.tenant = "uni-a"; tier = "advanced"; inflight = 2;
                completed_n = 5; failed_n = 0; p50_ms = 120.0; p99_ms = 410.0 };
              { Wire.tenant = "uni-b"; tier = "basic"; inflight = 1;
                completed_n = 4; failed_n = 1; p50_ms = 250.0; p99_ms = 900.0 };
            ];
          slos =
            [
              { Slo.tier = "advanced";
                objective = { Slo.p99_ms = 500.0; success_rate = 0.95 };
                samples = 5; p50_ms = 120.0; p99_ms = 410.0; ok_rate = 1.0;
                latency_budget = 1.0; success_budget = 1.0; burn_rate = 0.0 };
            ];
        };
      Wire.Health_report
        {
          uptime_ms = 1234.5;
          queue_depth = 3;
          running = 2;
          completed = 40;
          failed = 1;
          draining = false;
          workers = 4;
        };
      Wire.Metrics_text "# TYPE serve_admitted counter\nserve_admitted 2\n";
      Wire.Drain_ack { pending = 5 };
      Wire.Rejected { reason = Wire.Overloaded; retry_after_ms = None };
      Wire.Rejected { reason = Wire.Rate_limited; retry_after_ms = Some 437.5 };
      Wire.Rejected { reason = Wire.Quota_exceeded; retry_after_ms = None };
      Wire.Rejected { reason = Wire.Draining; retry_after_ms = None };
      Wire.Rejected { reason = Wire.Bad_request "no such design"; retry_after_ms = None };
      Wire.Rejected { reason = Wire.Unknown_id "j-999999"; retry_after_ms = None };
    ]

let test_wire_schema_gate () =
  (match Wire.decode_request {|{"schema":99,"op":"health"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema 99 must be rejected");
  match Wire.decode_request {|{"op":"health"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing schema must be rejected"

let test_wire_tolerant_decode () =
  (* unknown fields are ignored, optional submit fields default *)
  let line =
    Printf.sprintf {|{"schema":%d,"op":"submit","design":"counter","future_field":[1,2]}|}
      Wire.schema_version
  in
  match Wire.decode_request line with
  | Ok (Wire.Submit s) ->
    Alcotest.(check string) "design" "counter" s.Wire.design;
    Alcotest.(check string) "tenant default" "default" s.Wire.tenant;
    Alcotest.(check string) "preset default" "open" s.Wire.preset;
    Alcotest.(check int) "priority default" 1 s.Wire.priority
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error msg -> Alcotest.failf "tolerant decode failed: %s" msg

(* every decoder reads fields through one accessor set; these coercions
   are what the wire and the ledger promised before it existed *)
let test_accessor_semantics () =
  let submit extra =
    Printf.sprintf {|{"schema":%d,"op":"submit","design":"counter",%s}|}
      Wire.schema_version extra
  in
  let priority extra =
    match Wire.decode_request (submit extra) with
    | Ok (Wire.Submit s) -> s.Wire.priority
    | _ -> Alcotest.fail "submit did not decode"
  in
  let dft = (Wire.submit "counter").Wire.priority in
  Alcotest.(check int) "float priority is not an int" dft (priority {|"priority":2.0|});
  Alcotest.(check int) "string priority is not parsed" dft (priority {|"priority":"3"|});
  Alcotest.(check int) "int priority read" 3 (priority {|"priority":3|});
  let record line = Runlog.of_json (Jsonout.of_string line) in
  Alcotest.(check (float 0.0)) "int widens to a float field" 90.0
    (record {|{"total_wall_ms":90}|}).Runlog.total_wall_ms;
  Alcotest.(check (float 0.0)) "null float field takes its default" 0.0
    (record {|{"total_wall_ms":null}|}).Runlog.total_wall_ms;
  Alcotest.(check (option (float 0.0))) "null optional float is absent" None
    (record {|{"queue_wait_ms":null}|}).Runlog.queue_wait_ms;
  Alcotest.(check (option int)) "jsonout: float is not an int" None
    (Jsonout.int "k" (Jsonout.of_string {|{"k":2.0}|}));
  Alcotest.(check (option string)) "jsonout: first member wins" (Some "a")
    (Jsonout.string "k" (Jsonout.of_string {|{"k":"a","k":"b"}|}));
  Alcotest.(check (option bool)) "jsonout: non-object has no fields" None
    (Jsonout.bool "k" (Jsonout.List [ Jsonout.Bool true ]))

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A relay (old server forwarding, proxy, queue spool) must not strip
   members it does not understand: decode keeps them in [extra] and
   encode re-emits them, so a newer peer behind the relay still sees
   them. *)
let test_wire_extras_preserved () =
  let line =
    Printf.sprintf
      {|{"schema":%d,"op":"submit","design":"counter","future_field":[1,2],"hint":"x"}|}
      Wire.schema_version
  in
  match Wire.decode_request line with
  | Ok (Wire.Submit s) ->
    Alcotest.(check int) "both unknown members kept" 2 (List.length s.Wire.extra);
    let reencoded = Wire.encode_request (Wire.Submit s) in
    Alcotest.(check bool) "future_field survives re-encode" true
      (contains ~needle:{|"future_field":[1,2]|} reencoded);
    Alcotest.(check bool) "hint survives re-encode" true
      (contains ~needle:{|"hint":"x"|} reencoded);
    (* and the round trip is stable: decode(encode(s)) = s *)
    Alcotest.(check bool) "stable" true (req_roundtrip (Wire.Submit s))
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error msg -> Alcotest.failf "extras decode failed: %s" msg

let test_wire_trace_fields () =
  (* legacy peer: no trace members at all -> trace = None *)
  (match
     Wire.decode_request
       (Printf.sprintf {|{"schema":%d,"op":"submit","design":"counter"}|} Wire.schema_version)
   with
  | Ok (Wire.Submit s) ->
    Alcotest.(check bool) "legacy submit has no trace" true (s.Wire.trace = None)
  | _ -> Alcotest.fail "legacy submit must decode");
  (* new client -> old-style relay: trace id round-trips verbatim *)
  (match
     Wire.decode_request
       (Printf.sprintf
          {|{"schema":%d,"op":"submit","design":"counter","trace_id":"t-1","parent_span":"c0"}|}
          Wire.schema_version)
   with
  | Ok (Wire.Submit { trace = Some ctx; _ }) ->
    Alcotest.(check string) "trace id" "t-1" (Tracectx.trace_id ctx);
    Alcotest.(check (option string)) "parent span" (Some "c0") (Tracectx.parent_span ctx)
  | _ -> Alcotest.fail "traced submit must decode with its context");
  (* a malformed trace id is a typed decode error, not a silent drop *)
  match
    Wire.decode_request
      (Printf.sprintf {|{"schema":%d,"op":"submit","design":"counter","trace_id":"bad id"}|}
         Wire.schema_version)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid trace_id must be rejected"

let test_ratelimit_bucket () =
  let rl = Ratelimit.create ~tiers:[ ("uni-a", Ratelimit.Advanced) ] () in
  Alcotest.(check bool) "tiering" true (Ratelimit.tier_of rl "uni-a" = Ratelimit.Advanced);
  Alcotest.(check bool) "default tier" true (Ratelimit.tier_of rl "x" = Ratelimit.Basic);
  (* basic: burst 8 at 2/s — 8 admits back-to-back, the 9th must wait *)
  for i = 1 to 8 do
    match Ratelimit.admit rl ~now_ms:0.0 "x" with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "admit %d within burst must pass" i
  done;
  (match Ratelimit.admit rl ~now_ms:0.0 "x" with
  | Ok () -> Alcotest.fail "9th back-to-back admit must be limited"
  | Error wait -> Alcotest.(check (float 1e-9)) "retry-after" 500.0 wait);
  (* 500ms later the bucket holds exactly one token again *)
  (match Ratelimit.admit rl ~now_ms:500.0 "x" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "refilled token must admit");
  (match Ratelimit.admit rl ~now_ms:500.0 "x" with
  | Ok () -> Alcotest.fail "bucket must be empty again"
  | Error _ -> ());
  (* refund restores one token; the cap is the burst *)
  Ratelimit.refund rl "x";
  (match Ratelimit.admit rl ~now_ms:500.0 "x" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "refunded token must admit");
  for _ = 1 to 20 do Ratelimit.refund rl "y" done;
  Alcotest.(check (float 1e-9)) "refund capped at burst" 8.0
    (Ratelimit.tokens rl ~now_ms:0.0 "y")

let test_ratelimit_validation () =
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Ratelimit: basic rate_per_s must be > 0, got 0") (fun () ->
      ignore
        (Ratelimit.create
           ~basic:{ Ratelimit.basic_defaults with Ratelimit.rate_per_s = 0.0 }
           ()))

(* Server admission tests drive [Server.handle] directly: no sockets, no
   worker pool started, so queued jobs stay queued and every decision is
   deterministic. *)
let with_server cfg f = Obs.with_collector (Obs.create ()) (fun () -> f (Server.create cfg))

let reject_reason = function
  | Wire.Rejected { reason; _ } -> Some reason
  | _ -> None

let test_server_admission_pipeline () =
  let cfg =
    {
      Server.default_config with
      Server.max_queue = 2;
      basic = { Ratelimit.basic_defaults with Ratelimit.max_inflight = 2 };
    }
  in
  with_server cfg (fun t ->
      (match Server.handle t (Wire.Submit (Wire.submit "no-such-design")) with
      | Wire.Rejected { reason = Wire.Bad_request _; _ } -> ()
      | r -> Alcotest.failf "bad design: %s" (Wire.encode_response r));
      (match Server.handle t (Wire.Submit { (Wire.submit "counter") with Wire.preset = "x" }) with
      | Wire.Rejected { reason = Wire.Bad_request _; _ } -> ()
      | r -> Alcotest.failf "bad preset: %s" (Wire.encode_response r));
      (* two admits fill tenant default's inflight quota of 2 *)
      let id1 =
        match Server.handle t (Wire.Submit (Wire.submit "counter")) with
        | Wire.Accepted { id; tier; cached; duplicate } ->
          Alcotest.(check string) "tier" "basic" tier;
          Alcotest.(check bool) "not cached" false cached;
          Alcotest.(check bool) "not duplicate" false duplicate;
          id
        | r -> Alcotest.failf "first submit: %s" (Wire.encode_response r)
      in
      (match Server.handle t (Wire.Submit (Wire.submit "gray8")) with
      | Wire.Accepted _ -> ()
      | r -> Alcotest.failf "second submit: %s" (Wire.encode_response r));
      (match reject_reason (Server.handle t (Wire.Submit (Wire.submit "mult4"))) with
      | Some Wire.Quota_exceeded -> ()
      | _ -> Alcotest.fail "third default-tenant submit must hit the quota");
      (* another tenant passes the quota but finds the queue full *)
      (match
         reject_reason (Server.handle t (Wire.Submit (Wire.submit ~tenant:"uni-b" "mult4")))
       with
      | Some Wire.Overloaded -> ()
      | _ -> Alcotest.fail "queue-bound submit must be rejected overloaded");
      (* status/result bookkeeping *)
      (match Server.handle t (Wire.Status id1) with
      | Wire.Job_status { state = Wire.Queued; verdict = None; _ } -> ()
      | r -> Alcotest.failf "status: %s" (Wire.encode_response r));
      (match Server.handle t (Wire.Result id1) with
      | Wire.Job_status { state = Wire.Queued; _ } -> ()
      | r -> Alcotest.failf "result of queued job: %s" (Wire.encode_response r));
      (match reject_reason (Server.handle t (Wire.Status "j-999999")) with
      | Some (Wire.Unknown_id _) -> ()
      | _ -> Alcotest.fail "unknown id must be rejected typed");
      (match Server.handle t Wire.Health with
      | Wire.Health_report { queue_depth = 2; running = 0; draining = false; _ } -> ()
      | r -> Alcotest.failf "health: %s" (Wire.encode_response r));
      (* drain: refuses new submits, reports pending work *)
      (match Server.handle t Wire.Drain with
      | Wire.Drain_ack { pending = 2 } -> ()
      | r -> Alcotest.failf "drain ack: %s" (Wire.encode_response r));
      (match reject_reason (Server.handle t (Wire.Submit (Wire.submit ~tenant:"uni-c" "counter"))) with
      | Some Wire.Draining -> ()
      | _ -> Alcotest.fail "submit while draining must be rejected draining");
      match Server.handle t Wire.Metrics with
      | Wire.Metrics_text text ->
        Alcotest.(check bool) "admitted counter exported" true
          (let re = "serve_admitted 2" in
           let rec contains i =
             i + String.length re <= String.length text
             && (String.sub text i (String.length re) = re || contains (i + 1))
           in
           contains 0)
      | r -> Alcotest.failf "metrics: %s" (Wire.encode_response r))

let test_server_rate_limit () =
  let cfg =
    {
      Server.default_config with
      Server.basic =
        { Ratelimit.rate_per_s = 0.001; burst = 1.0; max_inflight = 8; fair_weight = 1.0 };
    }
  in
  with_server cfg (fun t ->
      (match Server.handle t (Wire.Submit (Wire.submit "counter")) with
      | Wire.Accepted _ -> ()
      | r -> Alcotest.failf "burst submit: %s" (Wire.encode_response r));
      match Server.handle t (Wire.Submit (Wire.submit "gray8")) with
      | Wire.Rejected { reason = Wire.Rate_limited; retry_after_ms = Some ms } ->
        Alcotest.(check bool) "retry-after is positive" true (ms > 0.0)
      | r -> Alcotest.failf "second submit must be rate-limited: %s" (Wire.encode_response r))

let test_server_stats () =
  let cfg = { Server.default_config with Server.max_queue = 4 } in
  with_server cfg (fun t ->
      (* fresh server: SLO reports exist for both tiers with empty windows *)
      (match Server.handle t Wire.Stats with
      | Wire.Stats_report { queue_depth = 0; tenants = []; slos; _ } ->
        Alcotest.(check (list string)) "tiers reported" [ "basic"; "advanced" ]
          (List.map (fun (r : Slo.report) -> r.Slo.tier) slos);
        List.iter
          (fun (r : Slo.report) ->
            Alcotest.(check int) "no samples yet" 0 r.Slo.samples;
            Alcotest.(check (float 1e-9)) "full latency budget" 1.0 r.Slo.latency_budget;
            Alcotest.(check (float 1e-9)) "full success budget" 1.0 r.Slo.success_budget;
            Alcotest.(check (float 1e-9)) "no burn" 0.0 r.Slo.burn_rate)
          slos
      | r -> Alcotest.failf "stats: %s" (Wire.encode_response r));
      (* queue two jobs (workers never started): depth shows up in stats *)
      (match Server.handle t (Wire.Submit (Wire.submit "counter")) with
      | Wire.Accepted _ -> ()
      | r -> Alcotest.failf "submit: %s" (Wire.encode_response r));
      (match Server.handle t (Wire.Submit (Wire.submit ~tenant:"uni-b" "gray8")) with
      | Wire.Accepted _ -> ()
      | r -> Alcotest.failf "submit: %s" (Wire.encode_response r));
      (match Server.handle t (Wire.Submit (Wire.submit "no-such-design")) with
      | Wire.Rejected _ -> ()
      | r -> Alcotest.failf "bad submit: %s" (Wire.encode_response r));
      match Server.handle t Wire.Stats with
      | Wire.Stats_report { queue_depth = 2; rejects; _ } ->
        (* every reason is reported, zeros included, so monitors see
           flat series rather than gaps before the first reject *)
        Alcotest.(check (list (pair string int))) "typed reject tally"
          [
            ("bad_request", 1); ("draining", 0); ("overloaded", 0); ("quota", 0);
            ("rate_limited", 0); ("unknown_id", 0);
          ]
          rejects
      | r -> Alcotest.failf "stats after submits: %s" (Wire.encode_response r))

(* duplicate submissions: the same idempotency key must come back with
   the original job id, marked [duplicate], and must not consume a second
   queue slot *)
let test_server_idempotency () =
  let cfg = { Server.default_config with Server.max_queue = 8 } in
  with_server cfg (fun t ->
      let spec = { (Wire.submit "counter") with Wire.idempotency_key = Some "ex1-key" } in
      let id1 =
        match Server.handle t (Wire.Submit spec) with
        | Wire.Accepted { id; duplicate = false; _ } -> id
        | r -> Alcotest.failf "first keyed submit: %s" (Wire.encode_response r)
      in
      (match Server.handle t (Wire.Submit spec) with
      | Wire.Accepted { id; duplicate = true; _ } ->
        Alcotest.(check string) "original id returned" id1 id
      | r -> Alcotest.failf "resubmission: %s" (Wire.encode_response r));
      (match Server.handle t Wire.Health with
      | Wire.Health_report { queue_depth = 1; _ } -> ()
      | r -> Alcotest.failf "duplicate must not enqueue: %s" (Wire.encode_response r));
      match Server.handle t (Wire.Submit { spec with Wire.idempotency_key = Some "ex2-key" }) with
      | Wire.Accepted { id; duplicate = false; _ } ->
        Alcotest.(check bool) "different key is a fresh job" true (id <> id1)
      | r -> Alcotest.failf "second key: %s" (Wire.encode_response r))

(* a daemon that dies before opening its socket is reported at once,
   with its log, instead of after the full readiness timeout *)
let test_daemon_early_death () =
  let dir = Filename.temp_dir "educhip-daemon" "" in
  Fun.protect
    ~finally:(fun () -> Educhip_util.Files.rm_rf dir)
    (fun () ->
      let exe = Filename.concat dir "fake-eduserved" in
      Out_channel.with_open_bin exe (fun oc ->
          output_string oc "#!/bin/sh\necho \"refusing $1\" >&2\nexit 3\n");
      Unix.chmod exe 0o755;
      let d =
        Daemon.start ~exe ~socket:(Filename.concat dir "d.sock")
          ~cache_dir:(Filename.concat dir "cache") ~log:(Filename.concat dir "d.log")
          ~workers:1 ()
      in
      let t0 = Unix.gettimeofday () in
      (match Daemon.wait_ready d with
      | () -> Alcotest.fail "a dead daemon reported ready"
      | exception Failure msg ->
        Alcotest.(check bool) "says it died" true (contains ~needle:"died during startup" msg);
        Alcotest.(check bool) "quotes its log" true (contains ~needle:"refusing --socket" msg));
      Alcotest.(check bool) "well before the timeout" true (Unix.gettimeofday () -. t0 < 30.0))

(* crash replay: a server admits a keyed job into its journal and
   "crashes" (is dropped without executing anything); a second server on
   the same journal must replay it under the original id, answer
   [Result] for it, and still suppress the key *)
let test_server_journal_replay () =
  let jpath = Filename.temp_file "educhip_srvj" ".eduj" in
  Sys.remove jpath;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists jpath then Sys.remove jpath)
    (fun () ->
      let cfg = { Server.default_config with Server.journal = Some jpath } in
      let spec =
        { (Wire.submit "counter") with Wire.idempotency_key = Some "replay-key" }
      in
      let id1 =
        with_server cfg (fun t ->
            match Server.handle t (Wire.Submit spec) with
            | Wire.Accepted { id; _ } -> id
            | r -> Alcotest.failf "admit: %s" (Wire.encode_response r))
      in
      with_server cfg (fun t2 ->
          (match Server.recover t2 with
          | Some st ->
            Alcotest.(check int) "one job replayed" 1 st.Server.replayed;
            Alcotest.(check int) "nothing restored" 0 st.Server.restored_completed;
            Alcotest.(check int) "no drops" 0 st.Server.dropped_lines
          | None -> Alcotest.fail "journal configured: recover must report stats");
          (match Server.handle t2 (Wire.Result id1) with
          | Wire.Job_result { id; verdict; _ } ->
            Alcotest.(check string) "original id preserved" id1 id;
            Alcotest.(check string) "replayed to completion" "ok" verdict
          | r -> Alcotest.failf "result after replay: %s" (Wire.encode_response r));
          match Server.handle t2 (Wire.Submit spec) with
          | Wire.Accepted { id; duplicate = true; _ } ->
            Alcotest.(check string) "key survives the crash" id1 id
          | r -> Alcotest.failf "resubmission after replay: %s" (Wire.encode_response r)))

(* a job whose queue-wait budget runs out behind another job on the one
   worker reaches a terminal failed state through the same completion
   path as a run: counted, its tenant's inflight slot released, its
   [Done] journaled and its ledger record carrying the wait *)
let test_server_deadline_expiry () =
  let dir = Filename.temp_dir "educhip-deadline" "" in
  Fun.protect
    ~finally:(fun () -> Educhip_util.Files.rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "s.sock" in
      let journal = Filename.concat dir "j.eduj" in
      let ledger = Filename.concat dir "l.jsonl" in
      let cfg =
        {
          Server.default_config with
          Server.workers = 1;
          journal = Some journal;
          ledger = Some ledger;
        }
      in
      let c = Obs.create () in
      let expired_id, tenants =
        Obs.with_collector c (fun () ->
            let t = Server.create cfg in
            let listen_fd = Listener.listen_unix ~path:socket in
            let thread = Thread.create (fun () -> Server.serve t listen_fd) () in
            let client = Client.connect_unix socket in
            let submit spec =
              match Client.submit client spec with
              | Ok (Wire.Accepted { id; _ }) -> id
              | Ok r -> Alcotest.failf "submit: %s" (Wire.encode_response r)
              | Error e -> Alcotest.failf "submit: %s" e
            in
            (* the blocker occupies the only worker for tens of ms *)
            let blocker =
              submit { (Wire.submit ~tenant:"uni-a" "alu8") with Wire.preset = "commercial" }
            in
            let id =
              submit { (Wire.submit ~tenant:"uni-b" "counter") with Wire.deadline_ms = Some 1.0 }
            in
            let await id =
              match Client.await ~poll_ms:5.0 ~timeout_ms:60_000.0 client id with
              | Ok r -> r
              | Error e -> Alcotest.failf "await %s: %s" id e
            in
            (match await blocker with
            | Wire.Job_result { verdict; _ } ->
              Alcotest.(check string) "blocker ran" "ok" verdict
            | r -> Alcotest.failf "blocker: %s" (Wire.encode_response r));
            (match await id with
            | Wire.Job_result { verdict; ppa; wait_ms; _ } ->
              Alcotest.(check string) "expired verdict" "failed(deadline_exceeded)" verdict;
              Alcotest.(check bool) "no ppa" true (ppa = None);
              Alcotest.(check bool) "waited past its budget" true (wait_ms > 1.0)
            | r -> Alcotest.failf "expired job: %s" (Wire.encode_response r));
            let tenants =
              match Client.request client Wire.Stats with
              | Ok (Wire.Stats_report { tenants; _ }) -> tenants
              | Ok r -> Alcotest.failf "stats: %s" (Wire.encode_response r)
              | Error e -> Alcotest.failf "stats: %s" e
            in
            ignore (Client.request client Wire.Drain);
            Client.close client;
            Thread.join thread;
            Unix.close listen_fd;
            (id, tenants))
      in
      Alcotest.(check int) "serve.deadline_expired" 1
        (Obs.counter_value c "serve.deadline_expired");
      (match
         List.find_opt (fun (ts : Wire.tenant_stats) -> ts.Wire.tenant = "uni-b") tenants
       with
      | Some ts ->
        Alcotest.(check int) "inflight released" 0 ts.Wire.inflight;
        Alcotest.(check int) "counted failed" 1 ts.Wire.failed_n
      | None -> Alcotest.fail "stats: no uni-b row");
      Alcotest.(check bool) "journal holds its Done" true
        (List.exists
           (function
             | Journal.Done { id; verdict } ->
               id = expired_id && verdict = "failed(deadline_exceeded)"
             | _ -> false)
           (Journal.load ~path:journal).Journal.entries);
      match
        List.find_opt
          (fun (r : Runlog.record) -> r.Runlog.verdict = "failed(deadline_exceeded)")
          (Runlog.load ~path:ledger)
      with
      | Some r ->
        Alcotest.(check bool) "ledger carries the wait" true
          (match r.Runlog.queue_wait_ms with Some w -> w > 1.0 | None -> false)
      | None -> Alcotest.fail "ledger: no expired record")

let suite =
  [
    Alcotest.test_case "wire request round-trip" `Quick test_wire_request_roundtrip;
    Alcotest.test_case "wire response round-trip" `Quick test_wire_response_roundtrip;
    Alcotest.test_case "wire schema gate" `Quick test_wire_schema_gate;
    Alcotest.test_case "wire tolerant decode" `Quick test_wire_tolerant_decode;
    Alcotest.test_case "shared json accessor semantics" `Quick test_accessor_semantics;
    Alcotest.test_case "wire unknown members preserved" `Quick test_wire_extras_preserved;
    Alcotest.test_case "wire trace fields" `Quick test_wire_trace_fields;
    Alcotest.test_case "ratelimit token bucket" `Quick test_ratelimit_bucket;
    Alcotest.test_case "ratelimit validation" `Quick test_ratelimit_validation;
    Alcotest.test_case "server admission pipeline" `Quick test_server_admission_pipeline;
    Alcotest.test_case "server rate limiting" `Quick test_server_rate_limit;
    Alcotest.test_case "server stats and slo reports" `Quick test_server_stats;
    Alcotest.test_case "server idempotent resubmission" `Quick test_server_idempotency;
    Alcotest.test_case "server journal crash replay" `Quick test_server_journal_replay;
    Alcotest.test_case "server deadline expiry over a socket" `Quick
      test_server_deadline_expiry;
    Alcotest.test_case "daemon early death reported" `Quick test_daemon_early_death;
  ]
