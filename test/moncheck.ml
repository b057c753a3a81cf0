(* @moncheck smoke: deterministic monitoring of a two-daemon cluster.

   Two in-process eduserved instances ("a" and "b"), each in its own
   domain with its own telemetry collector, are scraped on a synthetic
   clock (tick n = n * 1000 ms) while the test drives load against "a":

   A) a reject-rate rule and an SLO burn-rate rule must walk
      pending (tick 2) -> firing (tick 3) -> resolved (tick 5) — the
      exact transitions, in rule order, recorded in the JSONL alert
      log and carrying the labels of the matched series;
   B) every scraped series is tagged with its target, so the same
      metric from the two daemons stays two series;
   C) draining "b" makes its next scrape fail (scrape.up = 0, a
      target-down rule fires the same tick) and its staleness crosses
      the window within one further tick;
   D) `eduflow top --once` on the loaded "a" renders its tenants, rejects
      and SLO tiers from a one-target scrape; with --rules it shows the
      alerts pane and logs exactly the transitions Scrape.step logs for
      the same rules file; against a dead socket it exits 1. `eduflow
      alerts` replays the log (exit 3 under --check while an alert is
      still firing).

   Every tick here, in `eduflow mon` and in `eduflow top` is the one
   Scrape.step: scrape, evaluate the rules, append the transitions. *)

module Wire = Educhip_serve.Wire
module Ratelimit = Educhip_serve.Ratelimit
module Server = Educhip_serve.Server
module Listener = Educhip_serve.Listener
module Client = Educhip_serve.Client
module Scrape = Educhip_mon.Scrape
module Tsdb = Educhip_mon.Tsdb
module Rules = Educhip_mon.Rules
module Alertlog = Educhip_mon.Alertlog
module Slo = Educhip_obs.Slo

let failures = ref 0

let check name ok =
  Printf.printf "moncheck  %-46s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then incr failures

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "educhip-moncheck-%d-%s" (Unix.getpid ()) name)

(* tiny basic bucket: after one admitted job every further basic submit
   is a rate_limited reject — the deterministic "reject storm" source *)
let cfg =
  {
    Server.default_config with
    Server.workers = 2;
    basic =
      { Ratelimit.rate_per_s = 0.001; burst = 1.0; max_inflight = 4; fair_weight = 1.0 };
    advanced =
      { Ratelimit.rate_per_s = 1000.0; burst = 100.0; max_inflight = 8; fair_weight = 2.0 };
    tiers = [ ("uni-a", Ratelimit.Advanced) ];
    (* an unreachable latency target makes the burn rate a pure function
       of the success window — the schedule below controls it exactly *)
    slo =
      [
        ("basic", { Slo.p99_ms = 1e9; success_rate = 0.90 });
        ("advanced", { Slo.p99_ms = 1e9; success_rate = 0.95 });
      ];
    slo_window = 8;
  }

let rules_text =
  "alert reject-storm metric=stats.rejects{reason=rate_limited} fn=rate window=1s \
   op=> value=0.5 for=500ms resolve=500ms severity=page\n\
   slo-burn adv-burn tier=advanced threshold=5 for=500ms resolve=500ms\n\
   alert target-down metric=scrape.up{target=b} fn=value op=< value=0.5 for=0 \
   resolve=0 severity=page\n"

let submit_and_await c spec =
  match Client.submit c spec with
  | Ok (Wire.Accepted { id; _ }) -> (
    match Client.await c id with
    | Ok (Wire.Job_result { verdict; _ }) -> `Done verdict
    | _ -> `Error)
  | Ok (Wire.Rejected { reason; _ }) -> `Rejected (Wire.reject_reason_name reason)
  | _ -> `Error

let advanced_job ?(inject = []) seed =
  {
    (Wire.submit ~tenant:"uni-a" "counter") with
    Wire.fault_seed = seed;
    retries = (if inject = [] then None else Some 0);
    inject;
  }

let run_cli cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> -1 in
  (code, Buffer.contents buf)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let () =
  (* the post-drain scrape writes into a dead socket on purpose; that
     must surface as a failed tick, not kill the harness *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let eduflow = if Array.length Sys.argv > 1 then Sys.argv.(1) else "eduflow" in
  let sock name = tmp (name ^ ".sock") in
  let alert_log = tmp "alerts.jsonl" in
  if Sys.file_exists alert_log then Sys.remove alert_log;

  (* each daemon lives in its own domain: Server.create installs the
     domain's collector there, so "a" and "b" keep separate registries
     inside one test process — exactly the multi-daemon shape *)
  let fd_a = Listener.listen_unix ~path:(sock "a") in
  let fd_b = Listener.listen_unix ~path:(sock "b") in
  let daemon fd =
    Domain.spawn (fun () ->
        let server = Server.create cfg in
        Server.serve server fd)
  in
  let dom_a = daemon fd_a in
  let dom_b = daemon fd_b in
  let drain name fd dom =
    let c = Client.connect_unix (sock name) in
    ignore (Client.request c Wire.Drain);
    Client.close c;
    Domain.join dom;
    Unix.close fd;
    if Sys.file_exists (sock name) then Sys.remove (sock name)
  in

  let scraper =
    Scrape.create
      [
        Scrape.target_of_spec ("a=" ^ sock "a");
        Scrape.target_of_spec ("b=" ^ sock "b");
      ]
  in
  let db = Scrape.tsdb scraper in
  let engine = Rules.create (Rules.parse_string ~source:"moncheck" rules_text) in
  let tick_results = Hashtbl.create 8 in
  let tick n =
    let results, _ =
      Scrape.step ~alert_log scraper engine ~now_ms:(float_of_int (1000 * n)) ~tick:n
    in
    Hashtbl.replace tick_results n results
  in

  let c_a = Client.connect_unix (sock "a") in

  (* ticks 0-1: quiet baseline *)
  tick 0;
  tick 1;

  (* before tick 2: one admitted basic job drains the bucket, the next
     submit is the reject; two crash-injected advanced jobs fill the
     8-slot SLO window with failures (burn = 1.0 / 0.05 = 20 >= 5) *)
  let basic_ok = submit_and_await c_a (Wire.submit ~tenant:"course" "counter") in
  let basic_rejected = submit_and_await c_a { (Wire.submit ~tenant:"course" "gray8") with Wire.fault_seed = 2 } in
  check "basic bucket: first job admitted" (match basic_ok with `Done _ -> true | _ -> false);
  check "basic bucket: second submit rate_limited"
    (basic_rejected = `Rejected "rate_limited");
  let failed =
    List.map
      (fun seed -> submit_and_await c_a (advanced_job ~inject:[ "flow.routing:crash@9" ] seed))
      [ 11; 12 ]
  in
  let is_failed = function
    | `Done v -> String.length v >= 6 && String.sub v 0 6 = "failed"
    | _ -> false
  in
  check "crash-injected advanced jobs fail" (List.for_all is_failed failed);
  tick 2;

  (* before tick 3: one more reject keeps the rate above threshold *)
  ignore (submit_and_await c_a { (Wire.submit ~tenant:"course" "mult4") with Wire.fault_seed = 3 });
  tick 3;

  (* before tick 4: eight clean advanced jobs flush the SLO window; no
     basic submits, so the reject rate falls to zero *)
  let clean = List.map (fun seed -> submit_and_await c_a (advanced_job seed)) [ 21; 22; 23; 24; 25; 26; 27; 28 ] in
  check "clean advanced jobs succeed"
    (List.for_all (function `Done "ok" -> true | _ -> false) clean);
  tick 4;
  tick 5;

  (* B: series are tagged per target *)
  let series_for target name = Tsdb.find db ~labels:[ ("target", target) ] name in
  check "health series tagged for both targets"
    (series_for "a" "health.completed" <> None && series_for "b" "health.completed" <> None);
  check "one series per target"
    (List.length (Tsdb.select db "health.completed") = 2);
  let completed target =
    match Option.bind (series_for target "health.completed") Tsdb.last with
    | Some (_, v) -> v
    | None -> -1.0
  in
  (* "a" ran the whole schedule (9 clean completions), "b" stayed idle *)
  check "targets kept distinct histories" (completed "a" >= 9.0 && completed "b" = 0.0);
  check "burn gauge scraped from stats verb"
    (match
       Option.bind
         (Tsdb.find db ~labels:[ ("target", "a"); ("tier", "advanced") ] "slo.burn_rate")
         (fun s -> Tsdb.value_at s ~t_ms:3000.0)
     with
    | Some v -> v >= 5.0
    | None -> false);

  (* C: kill "b" and watch the monitor notice *)
  drain "b" fd_b dom_b;
  check "b fresh before the kill is noticed"
    (Scrape.up scraper ~now_ms:6000.0 ~staleness_window_ms:1500.0 "b");
  tick 6;
  let b_result_6 =
    List.find (fun (r : Scrape.tick_result) -> r.Scrape.target = "b") (Hashtbl.find tick_results 6)
  in
  check "scrape of drained b fails" (not b_result_6.Scrape.ok && b_result_6.Scrape.error <> None);
  check "scrape.up{target=b} drops to 0"
    (match
       Option.bind (series_for "b" "scrape.up") (fun s -> Tsdb.value_at s ~t_ms:6000.0)
     with
    | Some 0.0 -> true
    | _ -> false);
  tick 7;
  check "b read down within one staleness window"
    ((not (Scrape.up scraper ~now_ms:7000.0 ~staleness_window_ms:1500.0 "b"))
    && Scrape.staleness_ms scraper ~now_ms:7000.0 "b" = Some 2000.0);
  check "a still up" (Scrape.up scraper ~now_ms:7000.0 ~staleness_window_ms:1500.0 "a");

  (* D: top against the loaded "a" — no jobs run from here to its drain,
     so top and an in-process step see the same daemon state *)
  let top args =
    run_cli
      (Printf.sprintf "%s top --once --socket %s%s" (Filename.quote eduflow)
         (Filename.quote (sock "a")) args)
  in
  let after marker out =
    let ml = String.length marker and ol = String.length out in
    let rec go i =
      if i + ml > ol then ""
      else if String.sub out i ml = marker then String.sub out i (ol - i)
      else go (i + 1)
    in
    go 0
  in
  let code_top_a, out = top "" in
  let slo_pane = after "SLO error budgets" out in
  check "top --once renders a's tenants, rejects, SLOs"
    (code_top_a = 0 && contains "| course " out && contains "| uni-a " out
    && contains "rate_limited 2" out && contains "| basic " slo_pane
    && contains "| advanced " slo_pane && not (contains "Alerts" out));
  let top_rules = tmp "top-rules.txt" and top_log = tmp "top-alerts.jsonl" in
  let step_log = tmp "step-alerts.jsonl" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ top_log; step_log ];
  Out_channel.with_open_text top_rules (fun oc ->
      output_string oc
        "alert top-rejects metric=stats.rejects{reason=rate_limited} fn=value op=>= \
         value=1 for=0 resolve=0 severity=page\n\
         alert top-failed metric=health.failed fn=value op=> value=0 for=0 resolve=0\n");
  let code_top_r, out_r =
    top
      (Printf.sprintf " --rules %s --alert-log %s" (Filename.quote top_rules)
         (Filename.quote top_log))
  in
  let one_target =
    Scrape.create [ { Scrape.target_name = "default"; addr = sock "a" } ]
  in
  ignore
    (Scrape.step ~alert_log:step_log one_target
       (Rules.create (Rules.load ~path:top_rules))
       ~now_ms:0.0 ~tick:0);
  Scrape.close one_target;
  let transitions path =
    List.map
      (fun (e : Alertlog.entry) ->
        ( e.Alertlog.tick, e.Alertlog.rule, e.Alertlog.labels, e.Alertlog.state,
          e.Alertlog.value, e.Alertlog.severity ))
      (Alertlog.load ~path)
  in
  check "top --rules shows the alerts pane"
    (code_top_r = 0 && contains "\nAlerts\n" out_r
    && contains "FIRING   top-rejects{reason=rate_limited}" out_r
    && contains "FIRING   top-failed" out_r);
  check "top --alert-log = Scrape.step's transitions"
    (transitions top_log <> [] && transitions top_log = transitions step_log);
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ top_rules; top_log; step_log ];

  Client.close c_a;
  Scrape.close scraper;
  drain "a" fd_a dom_a;

  (* A: the exact transition log *)
  let entries = Alertlog.load ~path:alert_log in
  let shape =
    List.map
      (fun (e : Alertlog.entry) -> (e.Alertlog.tick, e.Alertlog.rule, e.Alertlog.state))
      entries
  in
  let expected =
    [
      (2, "reject-storm", Alertlog.Pending);
      (2, "adv-burn", Alertlog.Pending);
      (3, "reject-storm", Alertlog.Firing);
      (3, "adv-burn", Alertlog.Firing);
      (5, "reject-storm", Alertlog.Resolved);
      (5, "adv-burn", Alertlog.Resolved);
      (6, "target-down", Alertlog.Pending);
      (6, "target-down", Alertlog.Firing);
    ]
  in
  check "alert transitions at exact ticks" (shape = expected);
  if shape <> expected then
    List.iter
      (fun (t, r, s) ->
        Printf.printf "moncheck    got (%d, %s, %s)\n" t r (Alertlog.state_name s))
      shape;
  check "reject-storm instance carries its series labels"
    (List.exists
       (fun (e : Alertlog.entry) ->
         e.Alertlog.rule = "reject-storm"
         && e.Alertlog.state = Alertlog.Firing
         && List.mem ("target", "a") e.Alertlog.labels
         && List.mem ("reason", "rate_limited") e.Alertlog.labels)
       entries);
  check "slo-burn entry pages at severity page"
    (List.exists
       (fun (e : Alertlog.entry) ->
         e.Alertlog.rule = "adv-burn" && e.Alertlog.severity = "page"
         && e.Alertlog.value >= 5.0)
       entries);
  check "target-down still firing at exit"
    (List.exists
       (fun (i : Rules.instance) ->
         i.Rules.inst_rule.Rules.rule_name = "target-down"
         && i.Rules.inst_state = Alertlog.Firing)
       (Rules.active engine));

  (* D: the operator surfaces *)
  let code, out =
    run_cli (Printf.sprintf "%s alerts --log %s --last 20" (Filename.quote eduflow) (Filename.quote alert_log))
  in
  check "eduflow alerts replays the log"
    (code = 0 && contains "reject-storm" out && contains "target-down" out
    && contains "firing" out && contains "resolved" out);
  let code_check, _ =
    run_cli (Printf.sprintf "%s alerts --log %s --check" (Filename.quote eduflow) (Filename.quote alert_log))
  in
  check "alerts --check exits 3 while firing" (code_check = 3);
  let code_top, _ =
    run_cli (Printf.sprintf "%s top --once --socket %s" (Filename.quote eduflow) (Filename.quote (tmp "nonexistent.sock")))
  in
  check "top --once against a dead socket exits 1" (code_top = 1);

  if Sys.file_exists alert_log then Sys.remove alert_log;
  if !failures > 0 then begin
    Printf.printf "moncheck: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "moncheck: all checks passed"
