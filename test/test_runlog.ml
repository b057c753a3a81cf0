module Jsonout = Educhip_obs.Jsonout
module Runlog = Educhip_obs.Runlog
module Regress = Educhip_obs.Regress

let check = Alcotest.check

let qor =
  { Runlog.cells = 268; area_um2 = 1525.2; wns_ps = 738.1; wirelength_um = 4461.3;
    drc_violations = 0 }

let steps =
  [ { Runlog.step = "synthesis"; wall_ms = 8.2; attempts = 1; rung = 0 };
    { Runlog.step = "routing"; wall_ms = 6.6; attempts = 3; rung = 1 } ]

let record =
  Runlog.make ~design:"alu8" ~node:"edu130" ~preset:"open" ~verdict:"ok"
    ~total_wall_ms:85.0 ~injected:[ "flow.routing:crash" ] ~fault_seed:7
    ~max_retries:2 ~guard_retries:2 ~guard_degraded:1 ~steps ~qor ()

(* {1 JSON round trip} *)

let test_json_roundtrip () =
  let back = Runlog.of_json (Runlog.to_json record) in
  check Alcotest.bool "identical after a round trip" true (back = record);
  check Alcotest.int "schema version stamped" Runlog.schema_version back.Runlog.schema

let test_tolerant_parsing () =
  (* a future tool's record: unknown fields, Int where we emit Float *)
  let json =
    {|{"schema":9,"design":"alu8","node":"edu130","preset":"open","verdict":"ok",
       "total_wall_ms":90,"future_field":{"x":1},"another":[true]}|}
  in
  let r = Runlog.of_json (Jsonout.of_string json) in
  check (Alcotest.float 1e-9) "int accepted for float field" 90.0 r.Runlog.total_wall_ms;
  check Alcotest.int "unknown members preserved" 2 (List.length r.Runlog.extra);
  check Alcotest.bool "missing qor is None" true (r.Runlog.qor = None);
  check Alcotest.bool "missing steps default empty" true (r.Runlog.steps = []);
  (* the unknown fields survive a re-emit *)
  let re = Runlog.to_json r in
  check Alcotest.bool "extra re-emitted" true
    (Jsonout.member "future_field" re = Some (Jsonout.Obj [ ("x", Jsonout.Int 1) ]));
  check Alcotest.bool "non-object rejected" true
    (try
       ignore (Runlog.of_json (Jsonout.List []));
       false
     with Failure _ -> true)

(* {1 Schema-2 service fields: trace id and queue wait} *)

let test_v2_service_fields () =
  (* a served job's record carries its trace id and queue wait *)
  let served =
    Runlog.make ~design:"alu8" ~node:"edu130" ~preset:"open" ~verdict:"ok"
      ~total_wall_ms:85.0 ~trace_id:"trace-0af1" ~queue_wait_ms:12.5 ()
  in
  let json = Runlog.to_json served in
  check Alcotest.bool "trace_id emitted" true
    (Jsonout.member "trace_id" json = Some (Jsonout.String "trace-0af1"));
  check Alcotest.bool "queue_wait_ms emitted" true
    (Jsonout.member "queue_wait_ms" json = Some (Jsonout.Float 12.5));
  let back = Runlog.of_json json in
  check Alcotest.bool "v2 fields round-trip" true
    (back.Runlog.trace_id = Some "trace-0af1"
    && back.Runlog.queue_wait_ms = Some 12.5);
  (* a local (non-service) run elides both members entirely *)
  let local_json = Runlog.to_json record in
  check Alcotest.bool "local record stays schema-1 shaped" true
    (Jsonout.member "trace_id" local_json = None
    && Jsonout.member "queue_wait_ms" local_json = None)

let test_v1_line_forward_tolerant () =
  (* a ledger written by the previous release: schema 1, no service
     fields — must load with both as None, not fail *)
  let v1_line =
    {|{"schema":1,"design":"alu8","node":"edu130","preset":"open","verdict":"ok",
       "total_wall_ms":85.0}|}
  in
  let r = Runlog.of_json (Jsonout.of_string v1_line) in
  check Alcotest.int "v1 stamp preserved" 1 r.Runlog.schema;
  check Alcotest.bool "absent trace_id is None" true (r.Runlog.trace_id = None);
  check Alcotest.bool "absent queue_wait_ms is None" true
    (r.Runlog.queue_wait_ms = None);
  check Alcotest.int "current records stamp schema 2" 2 Runlog.schema_version

(* {1 Ledger file} *)

let with_temp_ledger f =
  let path = Filename.temp_file "educhip_ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_append_load () =
  with_temp_ledger (fun path ->
      Sys.remove path;
      check Alcotest.bool "missing file is empty ledger" true (Runlog.load ~path = []);
      Runlog.append ~path record;
      Runlog.append ~path { record with Runlog.design = "mult8" };
      let loaded = Runlog.load ~path in
      check Alcotest.int "two records back" 2 (List.length loaded);
      check Alcotest.bool "first record intact" true (List.hd loaded = record);
      check Alcotest.bool "last picks the newest" true
        ((Runlog.last loaded |> Option.get).Runlog.design = "mult8"))

let test_load_skips_malformed () =
  with_temp_ledger (fun path ->
      Runlog.append ~path record;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "this is not json\n\n[1,2,3]\n";
      close_out oc;
      Runlog.append ~path { record with Runlog.design = "fir4x8" };
      let loaded = Runlog.load ~path in
      check Alcotest.int "bad lines skipped, good ones kept" 2 (List.length loaded));
  check Alcotest.int "matching filters the triple" 1
    (List.length
       (Runlog.matching ~design:"alu8" ~node:"edu130" ~preset:"open"
          [ record; { record with Runlog.preset = "teaching" };
            { record with Runlog.node = "edu16" } ]))

(* bytes written by the ledger encoder before decoding moved onto the
   shared accessors: decoding and re-encoding them, or appending the
   decoded record, must reproduce them exactly *)
let golden_ledger_line =
  {|{"schema":2,"design":"alu8","node":"edu130","preset":"open","verdict":"degraded(routing)","total_wall_ms":85.0,"injected":["flow.routing:crash"],"fault_seed":7,"max_retries":2,"guard_retries":2,"guard_degraded":1,"steps":[{"step":"synthesis","wall_ms":8.2,"attempts":1,"rung":0},{"step":"routing","wall_ms":6.6,"attempts":3,"rung":1}],"qor":{"cells":268,"area_um2":1525.2,"wns_ps":-38.125,"wirelength_um":4461.3,"drc_violations":0},"trace_id":"0123456789abcdef","queue_wait_ms":1.5,"host":"lab-3"}|}

let test_golden_ledger_line () =
  let r = Runlog.of_json (Jsonout.of_string golden_ledger_line) in
  check Alcotest.string "re-encodes byte-identically" golden_ledger_line
    (Jsonout.to_string (Runlog.to_json r));
  with_temp_ledger (fun path ->
      Sys.remove path;
      Runlog.append ~path r;
      check Alcotest.string "ledger bytes on disk" (golden_ledger_line ^ "\n")
        (In_channel.with_open_bin path In_channel.input_all))

(* {1 Regression detection} *)

let test_no_regression_on_identical () =
  let report = Regress.compare_records ~baseline:record record in
  check Alcotest.bool "identical run never regresses" false
    (Regress.has_regression report);
  check Alcotest.bool "but findings are still listed" true
    (List.length report.Regress.findings > 5)

let test_wall_regression_and_floor () =
  let slowed =
    { record with
      Runlog.total_wall_ms = 400.0;
      steps =
        List.map (fun s -> { s with Runlog.wall_ms = s.Runlog.wall_ms *. 5.0 }) steps }
  in
  let report = Regress.compare_records ~baseline:record slowed in
  check Alcotest.bool "5x slowdown trips the gate" true (Regress.has_regression report);
  check Alcotest.bool "total wall flagged" true
    (List.exists
       (fun f -> f.Regress.metric = "total_wall_ms" && f.Regress.regressed)
       report.Regress.findings);
  (* same relative blowup on a micro design stays under the absolute floor *)
  let tiny = { record with Runlog.total_wall_ms = 2.0 } in
  let tiny_slow = { record with Runlog.total_wall_ms = 10.0 } in
  check Alcotest.bool "ms-scale noise is not a regression" false
    (Regress.has_regression (Regress.compare_records ~baseline:tiny tiny_slow))

let test_qor_regressions () =
  let worse q = { record with Runlog.qor = Some q } in
  let regressed_on metric baseline candidate =
    let report = Regress.compare_records ~baseline candidate in
    List.exists
      (fun f -> f.Regress.metric = metric && f.Regress.regressed)
      report.Regress.findings
  in
  check Alcotest.bool "cell growth past 2%" true
    (regressed_on "qor.cells" record (worse { qor with Runlog.cells = 300 }));
  check Alcotest.bool "WNS worsening past margin" true
    (regressed_on "qor.wns_ps" record (worse { qor with Runlog.wns_ps = 700.0 }));
  check Alcotest.bool "new DRC violation" true
    (regressed_on "qor.drc_violations" record
       (worse { qor with Runlog.drc_violations = 1 }));
  check Alcotest.bool "improvement is never a regression" false
    (Regress.has_regression
       (Regress.compare_records ~baseline:record
          (worse { qor with Runlog.cells = 200; wns_ps = 900.0 })));
  check Alcotest.bool "verdict decay regresses" true
    (regressed_on "verdict" record { record with Runlog.verdict = "failed(routing)" })

let test_median_baseline () =
  let runs =
    List.map
      (fun ms -> { record with Runlog.total_wall_ms = ms })
      [ 80.0; 100.0; 90.0 ]
  in
  (match Regress.median_baseline runs with
  | Some b ->
    check (Alcotest.float 1e-9) "median total wall" 90.0 b.Runlog.total_wall_ms;
    check Alcotest.string "verdict is median rank" "ok" b.Runlog.verdict;
    check Alcotest.bool "steps carry per-name medians" true
      (List.length b.Runlog.steps = List.length steps)
  | None -> Alcotest.fail "median of a non-empty list");
  check Alcotest.bool "empty population has no median" true
    (Regress.median_baseline [] = None)

let suite =
  [
    Alcotest.test_case "record json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "tolerant parsing of unknown fields" `Quick
      test_tolerant_parsing;
    Alcotest.test_case "v2 service fields round trip" `Quick test_v2_service_fields;
    Alcotest.test_case "v1 ledger lines stay loadable" `Quick
      test_v1_line_forward_tolerant;
    Alcotest.test_case "append and load" `Quick test_append_load;
    Alcotest.test_case "malformed lines skipped" `Quick test_load_skips_malformed;
    Alcotest.test_case "golden ledger line re-encodes identically" `Quick
      test_golden_ledger_line;
    Alcotest.test_case "identical run: no regression" `Quick
      test_no_regression_on_identical;
    Alcotest.test_case "wall regression and noise floor" `Quick
      test_wall_regression_and_floor;
    Alcotest.test_case "qor regressions" `Quick test_qor_regressions;
    Alcotest.test_case "median baseline" `Quick test_median_baseline;
  ]
