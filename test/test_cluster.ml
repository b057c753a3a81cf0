(* Cluster subsystem units: ring placement properties (determinism,
   fair-share distribution, minimal remap), spec parsing, response
   aggregation semantics, the new wire admin verbs, and the router's
   request handling against unreachable replicas, socket-free and over
   a real socket. *)

module Ring = Educhip_cluster.Ring
module Spec = Educhip_cluster.Spec
module Aggregate = Educhip_cluster.Aggregate
module Router = Educhip_cluster.Router
module Wire = Educhip_serve.Wire
module Client = Educhip_serve.Client
module Listener = Educhip_serve.Listener
module Files = Educhip_util.Files
module Slo = Educhip_obs.Slo

let check = Alcotest.check

(* {2 Ring} *)

let keys n = List.init n (fun i -> Printf.sprintf "job-key-%d" i)

let test_ring_basics () =
  let r = Ring.create ~seed:7 [ "a"; "b"; "c" ] in
  check
    Alcotest.(list string)
    "members in creation order" [ "a"; "b"; "c" ] (Ring.members r);
  let r' = Ring.create ~seed:7 [ "a"; "b"; "c" ] in
  List.iter
    (fun k ->
      check Alcotest.string "same seed, same placement" (Ring.lookup r k)
        (Ring.lookup r' k))
    (keys 200);
  let other = Ring.create ~seed:8 [ "a"; "b"; "c" ] in
  check Alcotest.bool "different seed, different layout" true
    (List.exists (fun k -> Ring.lookup r k <> Ring.lookup other k) (keys 200));
  (* placement is a pure function of the member set, not its order *)
  let shuffled = Ring.create ~seed:7 [ "c"; "a"; "b" ] in
  List.iter
    (fun k ->
      check Alcotest.string "member order is irrelevant" (Ring.lookup r k)
        (Ring.lookup shuffled k))
    (keys 200)

let test_ring_invalid () =
  let raises msg f =
    check Alcotest.bool msg true
      (match f () with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  raises "empty member list" (fun () -> Ring.create []);
  raises "duplicate member" (fun () -> Ring.create [ "a"; "a" ]);
  raises "empty name" (fun () -> Ring.create [ "a"; "" ]);
  raises "vnodes < 1" (fun () -> Ring.create ~vnodes:0 [ "a" ]);
  let r = Ring.create [ "a"; "b" ] in
  raises "add existing" (fun () -> Ring.add r "a");
  raises "remove missing" (fun () -> Ring.remove r "z");
  raises "remove last" (fun () -> Ring.remove (Ring.remove r "a") "b")

(* every member's share of 2000 keys within [0.5, 1.5] x fair, across a
   range of ring seeds — deterministic, since placement is seeded *)
let test_ring_distribution () =
  let members = [ "r1"; "r2"; "r3"; "r4" ] in
  let n = 2000 in
  let fair = float_of_int n /. 4.0 in
  for seed = 1 to 20 do
    let r = Ring.create ~seed members in
    let tally = Hashtbl.create 4 in
    List.iter
      (fun k ->
        let m = Ring.lookup r k in
        Hashtbl.replace tally m (1 + Option.value (Hashtbl.find_opt tally m) ~default:0))
      (keys n);
    List.iter
      (fun m ->
        let c = float_of_int (Option.value (Hashtbl.find_opt tally m) ~default:0) in
        check Alcotest.bool
          (Printf.sprintf "seed %d: %s share %.0f within [0.5, 1.5] x fair" seed m c)
          true
          (c >= (0.5 *. fair) && c <= 1.5 *. fair))
      members
  done

let qcheck_ring_successors =
  QCheck.Test.make ~name:"successors: owner first, every member exactly once"
    ~count:100
    QCheck.(pair small_nat small_string)
    (fun (seed, key) ->
      let members = [ "a"; "b"; "c"; "d"; "e" ] in
      let r = Ring.create ~seed members in
      let succ = Ring.successors r key in
      List.hd succ = Ring.lookup r key
      && List.sort compare succ = List.sort compare members)

let qcheck_ring_minimal_remap =
  QCheck.Test.make ~name:"remove moves only the removed member's keys" ~count:30
    QCheck.small_nat (fun seed ->
      let members = [ "r1"; "r2"; "r3"; "r4" ] in
      let r = Ring.create ~seed members in
      let shrunk = Ring.remove r "r2" in
      List.for_all
        (fun k ->
          let before = Ring.lookup r k in
          let after = Ring.lookup shrunk k in
          if before = "r2" then after <> "r2" else after = before)
        (keys 500))

let qcheck_ring_addback =
  QCheck.Test.make ~name:"add back restores the exact original placement" ~count:30
    QCheck.small_nat (fun seed ->
      let members = [ "r1"; "r2"; "r3"; "r4" ] in
      let r = Ring.create ~seed members in
      let readded = Ring.add (Ring.remove r "r2") "r2" in
      List.for_all (fun k -> Ring.lookup r k = Ring.lookup readded k) (keys 500))

(* {2 Spec} *)

let test_spec_parse () =
  let text =
    "# two local, one remote\n\
     replica r1 /tmp/r1.sock\n\
     replica r2 /tmp/r2.sock   # trailing comment\n\
     replica r3 10.0.0.7:7080\n\
     vnodes 32\n\
     hash-seed 5\n\
     probe-interval-ms 250\n\
     staleness-ms 1500\n"
  in
  match Spec.parse text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok s ->
    check
      Alcotest.(list (pair string string))
      "replicas in file order"
      [ ("r1", "/tmp/r1.sock"); ("r2", "/tmp/r2.sock"); ("r3", "10.0.0.7:7080") ]
      s.Spec.replicas;
    check Alcotest.int "vnodes" 32 s.Spec.vnodes;
    check Alcotest.int "seed" 5 s.Spec.seed;
    check (Alcotest.float 1e-9) "probe interval" 250.0 s.Spec.probe_interval_ms;
    check (Alcotest.float 1e-9) "staleness" 1500.0 s.Spec.staleness_ms;
    check
      Alcotest.(list string)
      "ring over the spec" [ "r1"; "r2"; "r3" ]
      (Ring.members (Spec.ring s));
    check Alcotest.int "ring picks up vnodes" 32 (Ring.vnodes (Spec.ring s))

let test_spec_errors () =
  let err text = match Spec.parse text with Error e -> e | Ok _ -> "OK" in
  check Alcotest.string "no replicas" "spec declares no replica" (err "vnodes 4\n");
  check Alcotest.bool "line-numbered unknown directive" true
    (String.length (err "replica a b\nbogus 1\n") > 0
    && String.sub (err "replica a b\nbogus 1\n") 0 7 = "line 2:");
  check Alcotest.bool "duplicate replica name" true
    (String.sub (err "replica a x\nreplica a y\n") 0 7 = "line 2:");
  check Alcotest.bool "replica arity" true
    (String.sub (err "replica only-name\n") 0 7 = "line 1:");
  check Alcotest.bool "bad vnodes" true
    (String.sub (err "replica a x\nvnodes zero\n") 0 7 = "line 2:");
  check Alcotest.bool "negative staleness" true
    (String.sub (err "replica a x\nstaleness-ms -5\n") 0 7 = "line 2:")

(* {2 Aggregation} *)

let health ~uptime ~qd ~run ~comp ~fail ~draining ~workers =
  Wire.Health_report
    {
      uptime_ms = uptime;
      queue_depth = qd;
      running = run;
      completed = comp;
      failed = fail;
      draining;
      workers;
    }

let test_merge_health () =
  let merged =
    Aggregate.merge_health
      [
        ("a", health ~uptime:100.0 ~qd:1 ~run:2 ~comp:3 ~fail:1 ~draining:false ~workers:2);
        ("b", health ~uptime:500.0 ~qd:2 ~run:0 ~comp:7 ~fail:0 ~draining:true ~workers:4);
      ]
  in
  (match merged with
  | Wire.Health_report h ->
    check (Alcotest.float 1e-9) "uptime is max" 500.0 h.uptime_ms;
    check Alcotest.int "queue depth sums" 3 h.queue_depth;
    check Alcotest.int "running sums" 2 h.running;
    check Alcotest.int "completed sums" 10 h.completed;
    check Alcotest.int "failed sums" 1 h.failed;
    check Alcotest.int "workers sum" 6 h.workers;
    check Alcotest.bool "draining only when all drain" false h.draining
  | _ -> Alcotest.fail "expected Health_report");
  match
    Aggregate.merge_health
      [
        ("a", health ~uptime:1.0 ~qd:0 ~run:0 ~comp:0 ~fail:0 ~draining:true ~workers:1);
        ("b", health ~uptime:2.0 ~qd:0 ~run:0 ~comp:0 ~fail:0 ~draining:true ~workers:1);
      ]
  with
  | Wire.Health_report h -> check Alcotest.bool "all draining" true h.draining
  | _ -> Alcotest.fail "expected Health_report"

let slo_report ~tier ~samples ~ok_rate ~p99 ~lat_budget ~succ_budget ~burn =
  {
    Slo.tier;
    objective = { Slo.p99_ms = 1000.0; success_rate = 0.9 };
    samples;
    p50_ms = p99 /. 2.0;
    p99_ms = p99;
    ok_rate;
    latency_budget = lat_budget;
    success_budget = succ_budget;
    burn_rate = burn;
  }

let stats ~uptime ~comp ~rejects ~tenants ~slos =
  Wire.Stats_report
    {
      uptime_ms = uptime;
      queue_depth = 0;
      running = 0;
      completed = comp;
      failed = 0;
      rejects;
      tenants;
      slos;
    }

let tenant ~name ~inflight ~comp ~p99 =
  {
    Wire.tenant = name;
    tier = "basic";
    inflight;
    completed_n = comp;
    failed_n = 0;
    p50_ms = p99 /. 2.0;
    p99_ms = p99;
  }

let test_merge_stats () =
  let merged =
    Aggregate.merge_stats
      [
        ( "a",
          stats ~uptime:10.0 ~comp:4
            ~rejects:[ ("overloaded", 2); ("rate_limited", 1) ]
            ~tenants:[ tenant ~name:"uni-a" ~inflight:1 ~comp:3 ~p99:80.0 ]
            ~slos:
              [
                slo_report ~tier:"basic" ~samples:10 ~ok_rate:0.9 ~p99:100.0
                  ~lat_budget:0.8 ~succ_budget:0.9 ~burn:0.5;
              ] );
        ( "b",
          stats ~uptime:20.0 ~comp:6
            ~rejects:[ ("overloaded", 3) ]
            ~tenants:
              [
                tenant ~name:"uni-a" ~inflight:2 ~comp:5 ~p99:120.0;
                tenant ~name:"uni-b" ~inflight:0 ~comp:2 ~p99:50.0;
              ]
            ~slos:
              [
                slo_report ~tier:"basic" ~samples:30 ~ok_rate:0.5 ~p99:200.0
                  ~lat_budget:0.4 ~succ_budget:0.95 ~burn:2.0;
              ] );
      ]
  in
  match merged with
  | Wire.Stats_report s ->
    check (Alcotest.float 1e-9) "uptime max" 20.0 s.uptime_ms;
    check Alcotest.int "completed sums" 10 s.completed;
    check Alcotest.int "overloaded sums" 5 (List.assoc "overloaded" s.rejects);
    check Alcotest.int "rate_limited kept" 1 (List.assoc "rate_limited" s.rejects);
    check Alcotest.int "unseen reasons pre-registered at zero" 0
      (List.assoc "draining" s.rejects);
    check
      Alcotest.(list string)
      "canonical reason order"
      Wire.reject_reason_names
      (List.map fst s.rejects);
    check Alcotest.int "two tenants" 2 (List.length s.tenants);
    let uni_a = List.find (fun (t : Wire.tenant_stats) -> t.tenant = "uni-a") s.tenants in
    check Alcotest.int "tenant inflight sums" 3 uni_a.Wire.inflight;
    check Alcotest.int "tenant completed sums" 8 uni_a.Wire.completed_n;
    check (Alcotest.float 1e-9) "tenant p99 is max" 120.0 uni_a.Wire.p99_ms;
    (match s.slos with
    | [ r ] ->
      check Alcotest.int "slo samples sum" 40 r.Slo.samples;
      check (Alcotest.float 1e-9) "slo ok_rate sample-weighted"
        0.6 (* (0.9 * 10 + 0.5 * 30) / 40 *)
        r.Slo.ok_rate;
      check (Alcotest.float 1e-9) "slo p99 max" 200.0 r.Slo.p99_ms;
      check (Alcotest.float 1e-9) "latency budget min" 0.4 r.Slo.latency_budget;
      check (Alcotest.float 1e-9) "success budget min" 0.9 r.Slo.success_budget;
      check (Alcotest.float 1e-9) "burn rate max" 2.0 r.Slo.burn_rate
    | other -> Alcotest.failf "expected one merged slo row, got %d" (List.length other))
  | _ -> Alcotest.fail "expected Stats_report"

let test_tag_sample () =
  check Alcotest.string "bare sample gains a label set"
    "serve_admitted{target=\"r1\"} 3"
    (Aggregate.tag_sample ~target:"r1" "serve_admitted 3");
  check Alcotest.string "existing labels keep their order"
    "m{target=\"r1\",op=\"submit\"} 1.5"
    (Aggregate.tag_sample ~target:"r1" "m{op=\"submit\"} 1.5");
  check Alcotest.string "empty label set" "m{target=\"r1\"} 1"
    (Aggregate.tag_sample ~target:"r1" "m{} 1");
  check Alcotest.string "label value escaped" "m{target=\"r\\\"1\"} 1"
    (Aggregate.tag_sample ~target:"r\"1" "m 1");
  check Alcotest.string "comment passes through" "# HELP m hi"
    (Aggregate.tag_sample ~target:"r1" "# HELP m hi")

let test_merge_expositions () =
  let a = "# TYPE serve_admitted counter\n# HELP serve_admitted x\nserve_admitted 3\n" in
  let b = "# TYPE serve_admitted counter\nserve_admitted 4\n" in
  let merged = Aggregate.merge_expositions [ ("r1", a); ("r2", b) ] in
  check Alcotest.string "TYPE once, samples tagged per replica"
    "# TYPE serve_admitted counter\n\
     serve_admitted{target=\"r1\"} 3\n\
     serve_admitted{target=\"r2\"} 4\n"
    merged;
  (* a monitor scraping the merged text sees one series per replica *)
  let parsed = Educhip_mon.Scrape.parse_exposition merged in
  check Alcotest.int "two series" 2 (List.length parsed);
  check Alcotest.bool "replica tags survive parsing" true
    (List.exists (fun (_, labels, _, _) -> List.assoc_opt "target" labels = Some "r2") parsed)

(* {2 Wire admin verbs} *)

let test_wire_admin_roundtrip () =
  (match Wire.decode_request (Wire.encode_request Wire.Cluster_status) with
  | Ok Wire.Cluster_status -> ()
  | _ -> Alcotest.fail "cluster_status round-trip");
  (match Wire.decode_request (Wire.encode_request (Wire.Drain_replica "r2")) with
  | Ok (Wire.Drain_replica "r2") -> ()
  | _ -> Alcotest.fail "drain_replica round-trip");
  let rows =
    [
      {
        Wire.r_name = "r1";
        r_addr = "/tmp/r1.sock";
        r_up = true;
        r_draining = false;
        r_removed = false;
        r_routed = 42;
        r_queue_depth = 1;
        r_running = 2;
        r_completed = 39;
        r_failed = 0;
      };
      {
        Wire.r_name = "r2";
        r_addr = ":7080";
        r_up = false;
        r_draining = true;
        r_removed = false;
        r_routed = 7;
        r_queue_depth = 0;
        r_running = 0;
        r_completed = 7;
        r_failed = 1;
      };
    ]
  in
  match
    Wire.decode_response (Wire.encode_response (Wire.Cluster_report { replicas = rows }))
  with
  | Ok (Wire.Cluster_report { replicas }) ->
    check Alcotest.bool "cluster report round-trips" true (replicas = rows)
  | _ -> Alcotest.fail "cluster_report round-trip"

(* {2 Router against unreachable replicas}

   Socket-free [Router.handle] sanity: no replica process exists, so
   transport-level behavior (local validation, failover exhaustion,
   typed rejections) is exercised without sleeping through real
   backoff — the retry policy is cut to zero retries. *)

let dead_router () =
  let spec =
    {
      Spec.default with
      Spec.replicas =
        [ ("r1", "/tmp/educhip-nonexistent-1.sock"); ("r2", "/tmp/educhip-nonexistent-2.sock") ];
    }
  in
  (* 2 retries with ~1 ms delays: enough connect attempts to walk (and
     down) both dead replicas without sleeping through real backoff *)
  Router.create
    {
      (Router.config spec) with
      Router.retry =
        { Client.default_retry_policy with Client.attempts = 2; base_ms = 1.0; cap_ms = 1.0 };
    }

let test_router_stash_config () =
  let spec =
    { Spec.default with Spec.replicas = [ ("r1", "/tmp/educhip-nonexistent-1.sock") ] }
  in
  let cfg = Router.config spec in
  Alcotest.(check int) "default stash cap" 512 cfg.Router.stash_max;
  Alcotest.check_raises "stash_max must be positive"
    (Invalid_argument "Router.create: stash_max must be >= 1, got 0") (fun () ->
      ignore (Router.create { cfg with Router.stash_max = 0 }))

let test_router_dead_replicas () =
  let r = dead_router () in
  (match Router.handle r (Wire.Submit (Wire.submit "no-such-design")) with
  | Wire.Rejected { reason = Wire.Bad_request _; _ } -> ()
  | _ -> Alcotest.fail "invalid design must be rejected locally");
  (match Router.handle r (Wire.Submit (Wire.submit "counter")) with
  | Wire.Rejected { reason = Wire.Overloaded; _ } -> ()
  | _ -> Alcotest.fail "all replicas down must reject overloaded");
  (match Router.handle r (Wire.Status "not-a-gid") with
  | Wire.Rejected { reason = Wire.Unknown_id _; _ } -> ()
  | _ -> Alcotest.fail "unprefixed id must be unknown");
  (match Router.handle r (Wire.Status "zz/j-000001") with
  | Wire.Rejected { reason = Wire.Unknown_id _; _ } -> ()
  | _ -> Alcotest.fail "unknown replica prefix must be unknown");
  (* the failed submission marked both replicas down *)
  let rows = Router.cluster_rows r in
  check Alcotest.int "both rows present" 2 (List.length rows);
  check Alcotest.bool "rows down after transport failures" true
    (List.for_all (fun row -> not row.Wire.r_up) rows);
  (match Router.handle r (Wire.Drain_replica "zz") with
  | Wire.Rejected { reason = Wire.Bad_request _; _ } -> ()
  | _ -> Alcotest.fail "draining an unknown replica must be bad_request");
  (* router-level drain: new submissions refused as draining *)
  (match Router.handle r Wire.Drain with
  | Wire.Drain_ack _ -> ()
  | _ -> Alcotest.fail "drain must ack");
  (match Router.handle r (Wire.Submit (Wire.submit "counter")) with
  | Wire.Rejected { reason = Wire.Draining; _ } -> ()
  | _ -> Alcotest.fail "submission after drain must be rejected draining");
  (* aggregated views degrade to empty, not errors *)
  (match Router.handle r Wire.Health with
  | Wire.Health_report h ->
    check Alcotest.int "no replica health to sum" 0 h.workers;
    check Alcotest.bool "router drain reflected" true h.draining
  | _ -> Alcotest.fail "expected Health_report");
  match Router.handle r Wire.Stats with
  | Wire.Stats_report s ->
    (* the router's own rejects (overloaded + draining + 2x unknown_id +
       bad_request) are reported even with every replica gone *)
    check Alcotest.bool "local rejects surface in merged stats" true
      (List.assoc "overloaded" s.rejects >= 1
      && List.assoc "draining" s.rejects >= 1
      && List.assoc "unknown_id" s.rejects >= 2
      && List.assoc "bad_request" s.rejects >= 1)
  | _ -> Alcotest.fail "expected Stats_report"

(* over a real socket, hostile lines get typed rejects from the
   router's listener, and the stats verb counts them *)
let test_router_wire_hygiene () =
  let r = dead_router () in
  let dir = Filename.temp_dir "educhip-router" "" in
  let path = Filename.concat dir "rt.sock" in
  let listen_fd = Listener.listen_unix ~path in
  let serving = Thread.create (fun () -> Router.serve r listen_fd) () in
  Fun.protect
    ~finally:(fun () ->
      Router.request_drain r;
      Thread.join serving;
      Unix.close listen_fd;
      Files.rm_rf dir)
    (fun () ->
      (* one connection, one raw payload, the decoded first answer *)
      let exchange payload =
        let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect c (Unix.ADDR_UNIX path);
        let writer =
          Thread.create
            (fun () -> ignore (Unix.write_substring c payload 0 (String.length payload)))
            ()
        in
        let answer =
          Listener.read_request_line c ~pending:(Buffer.create 64) ~timeout_ms:5000.0
        in
        Thread.join writer;
        Unix.close c;
        match answer with
        | Listener.Line l -> Wire.decode_response l
        | _ -> Error "no answer"
      in
      let bad_request = function
        | Ok (Wire.Rejected { reason = Wire.Bad_request _; _ }) -> true
        | _ -> false
      in
      check Alcotest.bool "oversized line: bad_request" true
        (bad_request (exchange (String.make (Listener.max_line_bytes + 1) 'x' ^ "\n")));
      check Alcotest.bool "garbage line: bad_request" true
        (bad_request (exchange "garbage\n"));
      match exchange (Wire.encode_request Wire.Stats ^ "\n") with
      | Ok (Wire.Stats_report s) ->
        check Alcotest.int "both counted under bad_request" 2
          (List.assoc "bad_request" s.rejects)
      | _ -> Alcotest.fail "expected Stats_report")

(* a held result through the router: the router forwards the wait, the
   replica answers when its job ends, not on the client's poll *)
let test_router_held_result () =
  let dir = Filename.temp_dir "educhip-rheld" "" in
  let rsock = Filename.concat dir "r1.sock" and path = Filename.concat dir "rt.sock" in
  let c = Educhip_obs.Obs.create () in
  Fun.protect
    ~finally:(fun () -> Files.rm_rf dir)
    (fun () ->
      Educhip_obs.Obs.with_collector c (fun () ->
          let server =
            Educhip_serve.Server.create
              { Educhip_serve.Server.default_config with Educhip_serve.Server.workers = 1 }
          in
          let rfd = Listener.listen_unix ~path:rsock in
          let replica = Thread.create (fun () -> Educhip_serve.Server.serve server rfd) () in
          let r =
            Router.create (Router.config { Spec.default with Spec.replicas = [ ("r1", rsock) ] })
          in
          let listen_fd = Listener.listen_unix ~path in
          let serving = Thread.create (fun () -> Router.serve r listen_fd) () in
          let client = Client.connect_unix path in
          let t0 = Unix.gettimeofday () in
          let res =
            match
              Client.submit client
                { (Wire.submit "alu8") with Wire.preset = "commercial" }
            with
            | Ok (Wire.Accepted { id; _ }) -> Client.await ~poll_ms:2000.0 client id
            | _ -> Error "submit"
          in
          let took_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          Client.close client;
          Router.request_drain r;
          Thread.join serving;
          Unix.close listen_fd;
          ignore (Educhip_serve.Server.handle server Wire.Drain);
          Thread.join replica;
          Unix.close rfd;
          (match res with
          | Ok (Wire.Job_result { id; exec_ms; wait_ms; _ }) ->
            check Alcotest.bool "global id" true (String.sub id 0 3 = "r1/");
            (* a 2 s poll grid would put the answer at 2 s or later *)
            check Alcotest.bool
              (Printf.sprintf "answered %.1f ms after a %.1f ms job" took_ms (exec_ms +. wait_ms))
              true
              (took_ms < exec_ms +. wait_ms +. 500.0)
          | Ok other -> Alcotest.failf "result: %s" (Wire.encode_response other)
          | Error e -> Alcotest.failf "await: %s" e);
          check Alcotest.int "the replica held the request" 1
            (List.length (Educhip_obs.Obs.histogram_samples c "serve.result_wait_ms"))))

(* the router's own [cluster_placements] gauge for [state] *)
let placements r state =
  match Router.handle r Wire.Metrics with
  | Wire.Metrics_text text ->
    let prefix = Printf.sprintf "cluster_placements{state=\"%s\"} " state in
    let line = List.find (String.starts_with ~prefix) (String.split_on_char '\n' text) in
    int_of_string (String.sub line (String.length prefix) (String.length line - String.length prefix))
  | resp -> Alcotest.failf "metrics: %s" (Wire.encode_response resp)

(* a rolling drain after the replica has evicted some of the jobs the
   router placed on it: the evicted ones count as finished, the drain
   completes, and the results the replica still held move to the stash *)
let test_router_drain_past_replica_cap () =
  let module Server = Educhip_serve.Server in
  let dir = Filename.temp_dir "educhip-rdrain" "" in
  let rsock = Filename.concat dir "r1.sock" in
  Fun.protect
    ~finally:(fun () -> Files.rm_rf dir)
    (fun () ->
      Educhip_obs.Obs.with_collector (Educhip_obs.Obs.create ()) (fun () ->
          let cache = Educhip_sched.Cache.create ~dir:(Filename.concat dir "cache") () in
          (match Server.validate_spec (Wire.submit "counter") with
          | Ok job -> ignore (Educhip_sched.Sched.run_one ~cache job)
          | Error e -> Alcotest.fail e);
          let fast =
            {
              Educhip_serve.Ratelimit.rate_per_s = 1e6;
              burst = 1e6;
              max_inflight = 64;
              fair_weight = 1.0;
            }
          in
          let server =
            Server.create
              { Server.default_config with Server.workers = 1; cache = Some cache; basic = fast }
          in
          let rfd = Listener.listen_unix ~path:rsock in
          let replica = Thread.create (fun () -> Server.serve server rfd) () in
          let r =
            Router.create
              {
                (Router.config { Spec.default with Spec.replicas = [ ("r1", rsock) ] }) with
                Router.read_timeout_ms = 500.0;
              }
          in
          let ids =
            Array.init (Server.max_finished + 40) (fun i ->
                match Router.handle r (Wire.Submit (Wire.submit "counter")) with
                | Wire.Accepted { id; cached = true; _ } -> id
                | resp -> Alcotest.failf "submit %d: %s" i (Wire.encode_response resp))
          in
          let newest = ids.(Array.length ids - 1) in
          let result id =
            match Router.handle r (Wire.Result { id; wait_ms = None }) with
            | Wire.Job_result { id = got; _ } -> `Result got
            | Wire.Rejected { reason = Wire.Unknown_id _; _ } -> `Unknown
            | resp -> Alcotest.failf "result %s: %s" id (Wire.encode_response resp)
          in
          check Alcotest.bool "oldest already evicted by the replica" true
            (result ids.(0) = `Unknown);
          check Alcotest.int "an id the replica evicted is no longer pending"
            (Array.length ids - 1) (placements r "pending");
          let drained = ref None in
          let drainer =
            Thread.create
              (fun () -> drained := Some (Router.handle r (Wire.Drain_replica "r1")))
              ()
          in
          (* once drained the replica stops serving, and the router's
             health probe of it times out after [read_timeout_ms] *)
          Thread.join drainer;
          ignore (Server.handle server Wire.Drain);
          Thread.join replica;
          Unix.close rfd;
          (match !drained with
          | Some (Wire.Cluster_report { replicas = [ row ] }) ->
            check Alcotest.bool "replica drained away" false row.Wire.r_up
          | Some resp -> Alcotest.failf "drain: %s" (Wire.encode_response resp)
          | None -> Alcotest.fail "drain did not answer");
          check Alcotest.bool "held result served from the stash" true
            (result newest = `Result newest);
          check Alcotest.bool "evicted id still unknown" true (result ids.(0) = `Unknown)))

(* more cache-hit jobs than [stash_max] through the router, each result
   fetched: the placements leave the pending set as their results pass,
   the terminal ones stay within the cap, newest kept, and a drain then
   carries exactly those over *)
let test_router_terminal_placements_bounded () =
  let module Server = Educhip_serve.Server in
  let dir = Filename.temp_dir "educhip-rterm" "" in
  let rsock = Filename.concat dir "r1.sock" in
  let stash_max = 8 and jobs = 20 in
  Fun.protect
    ~finally:(fun () -> Files.rm_rf dir)
    (fun () ->
      let cache = Educhip_sched.Cache.create ~dir:(Filename.concat dir "cache") () in
      (match Server.validate_spec (Wire.submit "counter") with
      | Ok job -> ignore (Educhip_sched.Sched.run_one ~cache job)
      | Error e -> Alcotest.fail e);
      let fast =
        { Educhip_serve.Ratelimit.rate_per_s = 1e6; burst = 1e6; max_inflight = 64; fair_weight = 1.0 }
      in
      let server =
        Server.create
          { Server.default_config with Server.workers = 1; cache = Some cache; basic = fast }
      in
      let rfd = Listener.listen_unix ~path:rsock in
      let replica = Thread.create (fun () -> Server.serve server rfd) () in
      let r =
        Router.create
          {
            (Router.config { Spec.default with Spec.replicas = [ ("r1", rsock) ] }) with
            Router.read_timeout_ms = 500.0;
            stash_max;
          }
      in
      let ids =
        Array.init jobs (fun i ->
            match Router.handle r (Wire.Submit (Wire.submit "counter")) with
            | Wire.Accepted { id; cached = true; _ } -> id
            | resp -> Alcotest.failf "submit %d: %s" i (Wire.encode_response resp))
      in
      check Alcotest.int "submitted jobs are pending" jobs (placements r "pending");
      let result id =
        match Router.handle r (Wire.Result { id; wait_ms = None }) with
        | Wire.Job_result { id = got; _ } -> `Result got
        | Wire.Rejected { reason = Wire.Unknown_id _; _ } -> `Unknown
        | resp -> Alcotest.failf "result %s: %s" id (Wire.encode_response resp)
      in
      Array.iter (fun id -> check Alcotest.bool "result answers" true (result id = `Result id)) ids;
      check Alcotest.int "none pending once all are done" 0 (placements r "pending");
      check Alcotest.int "terminal placements held at the cap" stash_max (placements r "terminal");
      let drained = ref None in
      let drainer =
        Thread.create (fun () -> drained := Some (Router.handle r (Wire.Drain_replica "r1"))) ()
      in
      Thread.join drainer;
      ignore (Server.handle server Wire.Drain);
      Thread.join replica;
      Unix.close rfd;
      (match !drained with
      | Some (Wire.Cluster_report _) -> ()
      | Some resp -> Alcotest.failf "drain: %s" (Wire.encode_response resp)
      | None -> Alcotest.fail "drain did not answer");
      Array.iteri
        (fun i id ->
          let newest = i >= jobs - stash_max in
          check Alcotest.bool
            (Printf.sprintf "job %d %s after the drain" i
               (if newest then "answers from the stash" else "was evicted"))
            true
            (result id = if newest then `Result id else `Unknown))
        ids;
      match Router.handle r Wire.Drain with
      | Wire.Drain_ack { pending } -> check Alcotest.int "drain ack pending" 0 pending
      | resp -> Alcotest.failf "drain: %s" (Wire.encode_response resp))

let suite =
  [
    Alcotest.test_case "ring determinism and order-independence" `Quick test_ring_basics;
    Alcotest.test_case "ring invalid arguments" `Quick test_ring_invalid;
    Alcotest.test_case "ring fair-share distribution" `Quick test_ring_distribution;
    QCheck_alcotest.to_alcotest qcheck_ring_successors;
    QCheck_alcotest.to_alcotest qcheck_ring_minimal_remap;
    QCheck_alcotest.to_alcotest qcheck_ring_addback;
    Alcotest.test_case "spec parsing" `Quick test_spec_parse;
    Alcotest.test_case "spec errors are line-numbered" `Quick test_spec_errors;
    Alcotest.test_case "health aggregation" `Quick test_merge_health;
    Alcotest.test_case "stats aggregation" `Quick test_merge_stats;
    Alcotest.test_case "exposition sample tagging" `Quick test_tag_sample;
    Alcotest.test_case "exposition merging" `Quick test_merge_expositions;
    Alcotest.test_case "wire admin verbs round-trip" `Quick test_wire_admin_roundtrip;
    Alcotest.test_case "router stash cap config" `Quick test_router_stash_config;
    Alcotest.test_case "router with unreachable replicas" `Quick test_router_dead_replicas;
    Alcotest.test_case "router wire hygiene over a socket" `Quick test_router_wire_hygiene;
    Alcotest.test_case "held result through the router" `Quick test_router_held_result;
    Alcotest.test_case "drain past the replica's finished cap" `Quick
      test_router_drain_past_replica_cap;
    Alcotest.test_case "terminal placements bounded" `Quick
      test_router_terminal_placements_bounded;
  ]
