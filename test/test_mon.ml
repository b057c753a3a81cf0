(* Unit + property tests for the monitoring layer (lib/mon): the Tsdb
   ring-buffer store and its window functions, the alert-rule DSL and
   state machine, the JSONL alert log, and the scraper's exposition
   parser round-tripping Obs.metrics_text. The wire-level end of the
   scraper (live daemons, target staleness) lives in moncheck.ml. *)

module Tsdb = Educhip_mon.Tsdb
module Rules = Educhip_mon.Rules
module Alertlog = Educhip_mon.Alertlog
module Scrape = Educhip_mon.Scrape
module Obs = Educhip_obs.Obs
module Jsonout = Educhip_obs.Jsonout

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let float_c = Alcotest.(float 1e-9)
let opt_float = Alcotest.(option (float 1e-9))

(* {1 Tsdb unit tests} *)

let test_tsdb_basics () =
  let db = Tsdb.create () in
  check int_c "default capacity" 512 (Tsdb.capacity db);
  let labels = [ ("tenant", "uni-a"); ("reason", "rate_limited") ] in
  check bool_c "record ok" true
    (Tsdb.record db ~labels ~kind:Tsdb.Counter ~t_ms:1000.0 "rejects" 1.0);
  (* label order never distinguishes two series *)
  let s =
    match Tsdb.find db ~labels:(List.rev labels) "rejects" with
    | Some s -> s
    | None -> Alcotest.fail "series not found under reordered labels"
  in
  check bool_c "kind is counter" true (Tsdb.series_kind s = Tsdb.Counter);
  check int_c "length" 1 (Tsdb.length s);
  (* first writer wins on kind *)
  ignore (Tsdb.record db ~labels ~kind:Tsdb.Gauge ~t_ms:2000.0 "rejects" 2.0);
  check bool_c "kind sticks" true (Tsdb.series_kind s = Tsdb.Counter);
  (* select matches label supersets, one series per target *)
  let tagged t = [ ("target", t); ("reason", "rate_limited") ] in
  ignore (Tsdb.record db ~labels:(tagged "a") ~kind:Tsdb.Counter ~t_ms:1000.0 "m" 1.0);
  ignore (Tsdb.record db ~labels:(tagged "b") ~kind:Tsdb.Counter ~t_ms:1000.0 "m" 2.0);
  check int_c "select superset (one target)" 1
    (List.length (Tsdb.select db ~where:[ ("target", "a") ] "m"));
  check int_c "select superset (all)" 2
    (List.length (Tsdb.select db ~where:[ ("reason", "rate_limited") ] "m"));
  check int_c "select empty where = all instances" 2 (List.length (Tsdb.select db "m"));
  check int_c "select unknown name" 0 (List.length (Tsdb.select db "nope"))

let test_tsdb_drops () =
  let db = Tsdb.create () in
  ignore (Tsdb.record db ~kind:Tsdb.Gauge ~t_ms:1000.0 "g" 1.0);
  check bool_c "older timestamp dropped" false
    (Tsdb.record db ~kind:Tsdb.Gauge ~t_ms:500.0 "g" 9.0);
  check bool_c "non-finite dropped" false
    (Tsdb.record db ~kind:Tsdb.Gauge ~t_ms:2000.0 "g" Float.nan);
  check bool_c "equal timestamp accepted" true
    (Tsdb.record db ~kind:Tsdb.Gauge ~t_ms:1000.0 "g" 2.0);
  let s = Option.get (Tsdb.find db "g") in
  check int_c "dropped counted" 2 (Tsdb.dropped s);
  (* last write at an instant wins for value_at *)
  check opt_float "value_at sees last write" (Some 2.0) (Tsdb.value_at s ~t_ms:1000.0);
  check opt_float "value_at before first sample" None (Tsdb.value_at s ~t_ms:999.0)

let test_tsdb_window () =
  let db = Tsdb.create () in
  ignore (Tsdb.record db ~kind:Tsdb.Counter ~t_ms:1000.0 "c" 0.0);
  ignore (Tsdb.record db ~kind:Tsdb.Counter ~t_ms:2000.0 "c" 5.0);
  let s = Option.get (Tsdb.find db "c") in
  (* half-open (now - w, now]: the pair belongs to its later sample *)
  check opt_float "pair in window" (Some 5.0) (Tsdb.delta s ~window_ms:1000.0 ~now_ms:2000.0);
  check opt_float "single sample, no pair" (Some 0.0)
    (Tsdb.delta s ~window_ms:1000.0 ~now_ms:1000.0);
  (* (2000, 2500] holds no sample: no data, not zero *)
  check opt_float "empty window is None" None
    (Tsdb.delta s ~window_ms:500.0 ~now_ms:2500.0);
  check opt_float "avg over both" (Some 2.5) (Tsdb.avg s ~window_ms:2000.0 ~now_ms:2000.0);
  check opt_float "max" (Some 5.0) (Tsdb.max_ s ~window_ms:2000.0 ~now_ms:2000.0);
  check opt_float "min" (Some 0.0) (Tsdb.min_ s ~window_ms:2000.0 ~now_ms:2000.0);
  check opt_float "quantile q=1" (Some 5.0)
    (Tsdb.quantile s ~q:1.0 ~window_ms:2000.0 ~now_ms:2000.0);
  check opt_float "value_at between samples" (Some 0.0) (Tsdb.value_at s ~t_ms:1500.0)

let test_tsdb_rate_reset () =
  let db = Tsdb.create () in
  ignore (Tsdb.record db ~kind:Tsdb.Counter ~t_ms:1000.0 "c" 0.0);
  ignore (Tsdb.record db ~kind:Tsdb.Counter ~t_ms:2000.0 "c" 10.0);
  (* counter reset (daemon restart): value falls to 3 *)
  ignore (Tsdb.record db ~kind:Tsdb.Counter ~t_ms:3000.0 "c" 3.0);
  let s = Option.get (Tsdb.find db "c") in
  (* rate clamps the negative increment to 0: (10 + 0) / 2s *)
  check opt_float "reset clamped in rate" (Some 5.0)
    (Tsdb.rate s ~window_ms:2000.0 ~now_ms:3000.0);
  (* delta keeps the signed net change: 10 - 7 *)
  check opt_float "delta keeps sign" (Some 3.0)
    (Tsdb.delta s ~window_ms:2000.0 ~now_ms:3000.0)

let test_tsdb_eviction () =
  let db = Tsdb.create ~capacity:2 () in
  for i = 1 to 3 do
    ignore (Tsdb.record db ~kind:Tsdb.Gauge ~t_ms:(float_of_int (1000 * i)) "g" (float_of_int i))
  done;
  let s = Option.get (Tsdb.find db "g") in
  check int_c "ring full" 2 (Tsdb.length s);
  check int_c "one evicted" 1 (Tsdb.evicted s);
  check
    Alcotest.(list (pair (float 0.0) (float 0.0)))
    "oldest evicted, newest kept"
    [ (2000.0, 2.0); (3000.0, 3.0) ]
    (Tsdb.samples s);
  Alcotest.check_raises "capacity < 2 rejected"
    (Invalid_argument "Tsdb.create: capacity 1 < 2") (fun () ->
      ignore (Tsdb.create ~capacity:1 ()))

(* {1 Tsdb qcheck properties} *)

(* a bounded run of samples: capacity 2..6, 0..40 integer values *)
let tsdb_run_arb =
  QCheck.make
    ~print:(fun (cap, vs) ->
      Printf.sprintf "cap=%d vs=[%s]" cap (String.concat ";" (List.map string_of_int vs)))
    QCheck.Gen.(
      pair (int_range 2 6) (list_size (int_range 0 40) (int_range (-50) 100)))

let record_run ?(capacity = 512) vs =
  let db = Tsdb.create ~capacity () in
  List.iteri
    (fun i v ->
      ignore
        (Tsdb.record db ~kind:Tsdb.Counter ~t_ms:(float_of_int (1000 * (i + 1))) "s"
           (float_of_int v)))
    vs;
  (db, Tsdb.find db "s")

let prop_eviction_keeps_newest =
  QCheck.Test.make ~name:"tsdb eviction keeps the newest samples" ~count:300 tsdb_run_arb
    (fun (cap, vs) ->
      let _, s = record_run ~capacity:cap vs in
      match s with
      | None -> vs = []
      | Some s ->
        let n = List.length vs in
        let kept = min cap n in
        let expected =
          List.filteri (fun i _ -> i >= n - kept) vs
          |> List.mapi (fun j v -> (float_of_int (1000 * (n - kept + j + 1)), float_of_int v))
        in
        Tsdb.length s = kept
        && Tsdb.evicted s = n - kept
        && Tsdb.samples s = expected
        && Tsdb.last s = Some (List.nth expected (kept - 1)))

let prop_rate_non_negative =
  QCheck.Test.make ~name:"tsdb rate is non-negative for any sample run" ~count:300
    tsdb_run_arb (fun (_, vs) ->
      (* arbitrary (even decreasing) values: per-pair clamping makes a
         counter reset read as 0, so rate can never go negative *)
      let _, s = record_run vs in
      match s with
      | None -> true
      | Some s ->
        let n = List.length vs in
        List.for_all
          (fun k ->
            List.for_all
              (fun i ->
                let now_ms = float_of_int (1000 * i) in
                match Tsdb.rate s ~window_ms:(float_of_int (1000 * k)) ~now_ms with
                | None -> true
                | Some r -> r >= 0.0)
              (List.init n (fun i -> i + 1)))
          [ 1; 2; 3; n ])

let prop_delta_additive =
  QCheck.Test.make ~name:"tsdb delta is additive over adjacent windows" ~count:300
    (QCheck.make
       ~print:(fun (k, vs) ->
         Printf.sprintf "k=%d vs=[%s]" k
           (String.concat ";" (List.map string_of_int vs)))
       QCheck.Gen.(
         pair (int_range 1 5) (list_size (int_range 1 40) (int_range (-50) 100))))
    (fun (k, vs) ->
      let _, s = record_run vs in
      let s = Option.get s in
      let w = float_of_int (1000 * k) in
      let d ~window_ms ~now_ms =
        Option.value ~default:0.0 (Tsdb.delta s ~window_ms ~now_ms)
      in
      (* every pair is attributed to the window of its later sample, so
         adjacent windows partition the pairs exactly (values are small
         ints: float sums are exact) *)
      List.for_all
        (fun i ->
          let now_ms = float_of_int (1000 * i) in
          d ~window_ms:w ~now_ms +. d ~window_ms:w ~now_ms:(now_ms -. w)
          = d ~window_ms:(2.0 *. w) ~now_ms)
        (List.init (List.length vs) (fun i -> i + 1)))

(* {1 Rules: parsing} *)

let test_rules_parse () =
  let text =
    "# thresholds for the moncheck cluster\n\
     alert reject-storm metric=stats.rejects{reason=rate_limited} fn=rate window=1s \
     op=> value=0.5 for=1s resolve=500ms severity=page\n\
     \n\
     slo-burn adv-burn tier=advanced threshold=1.5 for=2s resolve=1m\n"
  in
  match Rules.parse_string text with
  | [ r1; r2 ] ->
    check Alcotest.string "name" "reject-storm" r1.Rules.rule_name;
    check Alcotest.string "metric" "stats.rejects" r1.Rules.metric;
    check
      Alcotest.(list (pair string string))
      "selector" [ ("reason", "rate_limited") ] r1.Rules.selector;
    check bool_c "fn=rate" true (r1.Rules.fn = Rules.Rate);
    check float_c "window 1s" 1000.0 r1.Rules.window_ms;
    check bool_c "op=>" true (r1.Rules.op = Rules.Gt);
    check float_c "threshold" 0.5 r1.Rules.threshold;
    check float_c "for 1s" 1000.0 r1.Rules.for_ms;
    check float_c "resolve 500ms" 500.0 r1.Rules.resolve_ms;
    check Alcotest.string "severity" "page" r1.Rules.severity;
    check bool_c "not slo sugar" false r1.Rules.slo_burn;
    (* slo-burn compiles to a Value >= rule over the scraped gauge *)
    check Alcotest.string "slo metric" "slo.burn_rate" r2.Rules.metric;
    check
      Alcotest.(list (pair string string))
      "slo selector" [ ("tier", "advanced") ] r2.Rules.selector;
    check bool_c "slo fn=value" true (r2.Rules.fn = Rules.Value);
    check bool_c "slo op=>=" true (r2.Rules.op = Rules.Ge);
    check float_c "slo threshold" 1.5 r2.Rules.threshold;
    check float_c "resolve 1m" 60_000.0 r2.Rules.resolve_ms;
    check Alcotest.string "slo severity defaults to page" "page" r2.Rules.severity;
    check bool_c "slo sugar flag" true r2.Rules.slo_burn
  | rs -> Alcotest.failf "expected 2 rules, got %d" (List.length rs)

let test_rules_parse_errors () =
  let expect_error ~line text =
    match Rules.parse_string text with
    | _ -> Alcotest.failf "parse accepted %S" text
    | exception Invalid_argument msg ->
      let prefix = Printf.sprintf "<rules>:%d:" line in
      check bool_c
        (Printf.sprintf "error %S carries %S" msg prefix)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  in
  expect_error ~line:1 "alert a metric=m fn=value op=> value=1 bogus=2\n";
  expect_error ~line:1 "alert a metric=m fn=value op=> value=1 for=2parsecs\n";
  expect_error ~line:1 "alert a metric=m fn=value op=!= value=1\n";
  expect_error ~line:1 "alert a fn=value op=> value=1\n";
  expect_error ~line:2 "alert a metric=m fn=value op=> value=1\nwatch a metric=m\n";
  expect_error ~line:2
    "alert a metric=m fn=value op=> value=1\nalert a metric=m fn=value op=> value=2\n";
  expect_error ~line:1 "slo-burn b threshold=1\n";
  expect_error ~line:1 "slo-burn b tier=advanced\n"

(* [load] reads the whole file and parses it with the path as source; a
   missing path raises the [Sys_error] that opening it raises *)
let test_rules_load () =
  let path = Filename.temp_file "educhip-rules" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "alert a metric=m fn=value op=> value=1\nwatch b\n");
      (match Rules.load ~path with
      | _ -> Alcotest.fail "load accepted a bad directive"
      | exception Invalid_argument msg ->
        let prefix = path ^ ":2:" in
        check bool_c
          (Printf.sprintf "error %S carries %S" msg prefix)
          true
          (String.length msg >= String.length prefix
          && String.sub msg 0 (String.length prefix) = prefix));
      Sys.remove path;
      Alcotest.check_raises "missing file"
        (Sys_error (path ^ ": No such file or directory"))
        (fun () -> ignore (Rules.load ~path)))

(* {1 Rules: the state machine} *)

let eval_schedule rules values =
  (* drive one gauge series through [values], one sample + eval per
     synthetic second; returns (tick, rule, state) transition triples *)
  let db = Tsdb.create () in
  let t = Rules.create rules in
  let out = ref [] in
  List.iteri
    (fun i v ->
      let tick = i + 1 in
      let now_ms = float_of_int (1000 * tick) in
      ignore (Tsdb.record db ~kind:Tsdb.Gauge ~t_ms:now_ms "m" v);
      let entries = Rules.eval t db ~now_ms ~tick in
      out :=
        !out
        @ List.map
            (fun (e : Alertlog.entry) -> (e.Alertlog.tick, e.Alertlog.rule, e.Alertlog.state))
            entries)
    values;
  (t, !out)

let transitions =
  Alcotest.testable
    (fun fmt l ->
      Format.fprintf fmt "[%s]"
        (String.concat "; "
           (List.map
              (fun (t, r, s) -> Printf.sprintf "(%d,%s,%s)" t r (Alertlog.state_name s))
              l)))
    ( = )

let test_rules_state_machine () =
  let rules =
    Rules.parse_string "alert hot metric=m fn=value op=> value=0.5 for=1s resolve=1s\n"
  in
  (* true true | false | true (blip) | false false: the one-tick dip at
     tick 3 is shorter than resolve=1s, so the instance stays firing —
     hysteresis — and only the sustained quiet resolves it *)
  let t, log = eval_schedule rules [ 1.0; 1.0; 0.0; 1.0; 0.0; 0.0 ] in
  check transitions "pending -> firing -> (blip) -> resolved"
    [
      (1, "hot", Alertlog.Pending);
      (2, "hot", Alertlog.Firing);
      (6, "hot", Alertlog.Resolved);
    ]
    log;
  check int_c "no active instance after resolve" 0 (List.length (Rules.active t))

let test_rules_for_zero () =
  let rules =
    Rules.parse_string "alert now metric=m fn=value op=> value=0.5 for=0 resolve=0\n"
  in
  let t, log = eval_schedule rules [ 1.0; 0.0 ] in
  check transitions "for=0 fires on the pending tick, resolve=0 on the next"
    [
      (1, "now", Alertlog.Pending);
      (1, "now", Alertlog.Firing);
      (2, "now", Alertlog.Resolved);
    ]
    log;
  check int_c "inactive again" 0 (List.length (Rules.active t))

let test_rules_pending_cancel () =
  let rules =
    Rules.parse_string "alert hot metric=m fn=value op=> value=0.5 for=5s resolve=1s\n"
  in
  (* condition drops before [for] elapses: pending melts away silently *)
  let t, log = eval_schedule rules [ 1.0; 0.0; 0.0 ] in
  check transitions "pending cancelled emits nothing further"
    [ (1, "hot", Alertlog.Pending) ] log;
  check int_c "nothing active" 0 (List.length (Rules.active t))

let test_rules_per_instance () =
  (* a selector matching two targets runs two independent machines *)
  let db = Tsdb.create () in
  let rules =
    Rules.parse_string "alert down metric=up fn=value op=< value=0.5 for=0 resolve=0\n"
  in
  let t = Rules.create rules in
  ignore (Tsdb.record db ~labels:[ ("target", "a") ] ~kind:Tsdb.Gauge ~t_ms:1000.0 "up" 1.0);
  ignore (Tsdb.record db ~labels:[ ("target", "b") ] ~kind:Tsdb.Gauge ~t_ms:1000.0 "up" 0.0);
  let entries = Rules.eval t db ~now_ms:1000.0 ~tick:1 in
  let fired =
    List.filter_map
      (fun (e : Alertlog.entry) ->
        if e.Alertlog.state = Alertlog.Firing then Some e.Alertlog.labels else None)
      entries
  in
  check
    Alcotest.(list (list (pair string string)))
    "only target b fires, labels carried"
    [ [ ("target", "b") ] ]
    fired;
  check int_c "one active instance" 1 (List.length (Rules.active t))

(* {1 Alertlog} *)

let test_alertlog_round_trip () =
  let e =
    Alertlog.make ~t_ms:4000.0 ~tick:4 ~rule:"reject-storm"
      ~labels:[ ("reason", "rate_limited"); ("target", "a") ]
      ~state:Alertlog.Firing ~value:2.5 ~threshold:0.5 ~severity:"page" ()
  in
  (match Alertlog.of_json (Alertlog.to_json e) with
  | Some e' -> check bool_c "round trip" true (e = e')
  | None -> Alcotest.fail "round trip decode failed");
  (* forward tolerance: a newer writer's member survives the trip *)
  let extended =
    match Alertlog.to_json e with
    | Jsonout.Obj fields -> Jsonout.Obj (fields @ [ ("note", Jsonout.String "new") ])
    | _ -> Alcotest.fail "to_json not an object"
  in
  match Alertlog.of_json extended with
  | None -> Alcotest.fail "tolerant decode failed"
  | Some e' ->
    check bool_c "unknown member preserved" true
      (List.mem_assoc "note" e'.Alertlog.extra);
    let re = Jsonout.to_string (Alertlog.to_json e') in
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    check bool_c "re-encode keeps it" true (contains "note" re)

let test_alertlog_file () =
  let path = Filename.temp_file "educhip-alertlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let entry tick state =
        Alertlog.make ~t_ms:(float_of_int (1000 * tick)) ~tick ~rule:"r"
          ~state ~value:1.0 ~threshold:0.5 ()
      in
      Alertlog.append ~path (entry 1 Alertlog.Pending);
      (* a torn line in the middle must not take out the rest *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema\": 1, \"rule\": \"r\", \"state\": \"fir";
      output_string oc "\nnot json at all\n";
      close_out oc;
      Alertlog.append ~path (entry 2 Alertlog.Firing);
      let entries = Alertlog.load ~path in
      check int_c "good lines survive garbage" 2 (List.length entries);
      check transitions "order and content kept"
        [ (1, "r", Alertlog.Pending); (2, "r", Alertlog.Firing) ]
        (List.map
           (fun (e : Alertlog.entry) -> (e.Alertlog.tick, e.Alertlog.rule, e.Alertlog.state))
           entries);
      check int_c "missing file is empty log" 0
        (List.length (Alertlog.load ~path:(path ^ ".nope"))))

(* bytes written by the alert-log encoder before decoding moved onto
   the shared accessors *)
let golden_alert_line =
  {|{"schema":1,"t_ms":12000.0,"tick":12,"rule":"reject-rate","labels":{"target":"b","tier":"basic"},"state":"firing","value":0.375,"threshold":0.25,"severity":"page","note":"x"}|}

let test_alertlog_golden_line () =
  match Alertlog.of_json (Jsonout.of_string golden_alert_line) with
  | None -> Alcotest.fail "golden alert line did not decode"
  | Some e ->
    check Alcotest.string "re-encodes byte-identically" golden_alert_line
      (Jsonout.to_string (Alertlog.to_json e))

(* {1 Scrape.parse_exposition vs Obs.metrics_text} *)

let test_exposition_round_trip () =
  let c = Obs.create () in
  let hostile = "a\"b\\c\nd" in
  Obs.with_collector c (fun () ->
      Obs.add_counter ~labels:[ ("tenant", "uni-a") ] "serve.jobs" 3;
      Obs.set_gauge ~labels:[ ("path", hostile) ] "queue.depth" 4.0;
      Obs.observe "lat.ms" 50.0;
      Obs.observe "lat.ms" 100.0);
  let samples = Scrape.parse_exposition (Obs.metrics_text c) in
  let find name pred =
    List.exists
      (fun (n, labels, kind, v) -> n = name && pred labels kind v)
      samples
  in
  check bool_c "counter kind + value from TYPE line" true
    (find "serve_jobs" (fun labels kind v ->
         labels = [ ("tenant", "uni-a") ] && kind = Tsdb.Counter && v = 3.0));
  (* escaped label value (quote, backslash, newline) round-trips *)
  check bool_c "hostile gauge label value" true
    (find "queue_depth" (fun labels kind v ->
         labels = [ ("path", hostile) ] && kind = Tsdb.Gauge && v = 4.0));
  check bool_c "summary keeps quantile label" true
    (find "lat_ms" (fun labels kind v ->
         labels = [ ("quantile", "0.5") ] && kind = Tsdb.Summary && v = 75.0));
  check bool_c "summary count" true
    (find "lat_ms_count" (fun labels _ v -> labels = [] && v = 2.0));
  check bool_c "summary sum" true
    (find "lat_ms_sum" (fun labels _ v -> labels = [] && v = 150.0));
  (* hostile input to the parser itself: never raises, skips junk *)
  let junk =
    Scrape.parse_exposition "garbage {{{\nm nan\n# TYPE ok counter\nok 2\nok2 inf\n"
  in
  check bool_c "tolerant parser keeps the finite sample" true
    (junk = [ ("ok", [], Tsdb.Counter, 2.0) ])

let labels_c = Alcotest.(list (pair string string))

let test_relabel () =
  (* plain labels just gain the scraper's target *)
  check labels_c "target prepended"
    [ ("target", "r1"); ("reason", "overloaded") ]
    (Scrape.relabel ~target:"r1" [ ("reason", "overloaded") ]);
  (* a series already carrying target= (e.g. scraped from an eduroute
     router's merged exposition) keeps it as instance instead of being
     silently overwritten *)
  check labels_c "incoming target preserved as instance"
    [ ("target", "router"); ("instance", "r2"); ("op", "submit") ]
    (Scrape.relabel ~target:"router" [ ("target", "r2"); ("op", "submit") ]);
  (* and if instance is taken too, the incoming target survives as
     exported_target rather than clobbering either *)
  check labels_c "instance collision falls back to exported_target"
    [ ("target", "router"); ("instance", "keep"); ("exported_target", "r2") ]
    (Scrape.relabel ~target:"router" [ ("instance", "keep"); ("target", "r2") ])

let test_target_of_spec () =
  let t = Scrape.target_of_spec "a=/tmp/a.sock" in
  check Alcotest.string "name" "a" t.Scrape.target_name;
  check Alcotest.string "addr" "/tmp/a.sock" t.Scrape.addr;
  let bare = Scrape.target_of_spec "localhost:7777" in
  check Alcotest.string "bare addr names itself" "localhost:7777" bare.Scrape.target_name;
  (match Scrape.target_of_spec "=addr" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty name accepted");
  match Scrape.target_of_spec "name=" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty addr accepted"

(* the shared step with no daemon behind the target: the scrape fails,
   scrape.up reads 0, and a liveness rule walks pending -> firing the
   same tick, logged once per transition; a failed target keeps no
   reports *)
let test_step_dead_target () =
  let path = Filename.temp_file "educhip-step" ".jsonl" in
  let sock = Filename.temp_file "educhip-step" ".sock" in
  Sys.remove sock;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Sys.remove path;
      let s = Scrape.create [ { Scrape.target_name = "default"; addr = sock } ] in
      let rules =
        Rules.create
          (Rules.parse_string
             "alert down metric=scrape.up{target=default} fn=value op=< value=0.5 \
              for=0 resolve=0 severity=page\n")
      in
      let results, entries = Scrape.step ~alert_log:path s rules ~now_ms:1000.0 ~tick:0 in
      check bool_c "scrape failed" true
        (match results with [ r ] -> (not r.Scrape.ok) && r.Scrape.error <> None | _ -> false);
      check bool_c "no reports kept" true (Scrape.last_reports s "default" = None);
      let shape =
        List.map (fun (e : Alertlog.entry) -> (e.Alertlog.tick, e.Alertlog.rule, e.Alertlog.state))
      in
      check transitions "pending then firing"
        [ (0, "down", Alertlog.Pending); (0, "down", Alertlog.Firing) ]
        (shape entries);
      check transitions "logged as returned" (shape entries) (shape (Alertlog.load ~path));
      let _, again = Scrape.step s rules ~now_ms:2000.0 ~tick:1 in
      check int_c "steady state emits nothing" 0 (List.length again);
      check int_c "no log, no append" 2 (List.length (Alertlog.load ~path)))

let test_show_labels () =
  let ls = [ ("reason", "rate_limited"); ("target", "a") ] in
  check Alcotest.string "braced" "{reason=rate_limited,target=a}" (Tsdb.show_labels ls);
  check Alcotest.string "empty" "" (Tsdb.show_labels []);
  check Alcotest.string "cell" "reason=rate_limited,target=a" (Tsdb.show_labels ~cell:true ls);
  check Alcotest.string "empty cell" "-" (Tsdb.show_labels ~cell:true [])

let suite =
  [
    Alcotest.test_case "tsdb basics" `Quick test_tsdb_basics;
    Alcotest.test_case "tsdb drops" `Quick test_tsdb_drops;
    Alcotest.test_case "tsdb window semantics" `Quick test_tsdb_window;
    Alcotest.test_case "tsdb rate clamps resets" `Quick test_tsdb_rate_reset;
    Alcotest.test_case "tsdb eviction" `Quick test_tsdb_eviction;
    QCheck_alcotest.to_alcotest prop_eviction_keeps_newest;
    QCheck_alcotest.to_alcotest prop_rate_non_negative;
    QCheck_alcotest.to_alcotest prop_delta_additive;
    Alcotest.test_case "rules parse" `Quick test_rules_parse;
    Alcotest.test_case "rules parse errors" `Quick test_rules_parse_errors;
    Alcotest.test_case "rules load" `Quick test_rules_load;
    Alcotest.test_case "rules state machine" `Quick test_rules_state_machine;
    Alcotest.test_case "rules for=0" `Quick test_rules_for_zero;
    Alcotest.test_case "rules pending cancel" `Quick test_rules_pending_cancel;
    Alcotest.test_case "rules per-instance" `Quick test_rules_per_instance;
    Alcotest.test_case "alertlog round trip" `Quick test_alertlog_round_trip;
    Alcotest.test_case "alertlog file" `Quick test_alertlog_file;
    Alcotest.test_case "alertlog golden line" `Quick test_alertlog_golden_line;
    Alcotest.test_case "exposition round trip" `Quick test_exposition_round_trip;
    Alcotest.test_case "relabel preserves incoming target" `Quick test_relabel;
    Alcotest.test_case "target specs" `Quick test_target_of_spec;
    Alcotest.test_case "step on a dead target" `Quick test_step_dead_target;
    Alcotest.test_case "show labels" `Quick test_show_labels;
  ]
