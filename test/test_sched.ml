module Manifest = Educhip_sched.Manifest
module Fairshare = Educhip_sched.Fairshare
module Cache = Educhip_sched.Cache
module Sched = Educhip_sched.Sched
module Flow = Educhip_flow.Flow
module Fault = Educhip_fault.Fault
module Runlog = Educhip_obs.Runlog
module Obs = Educhip_obs.Obs
module Jsonout = Educhip_obs.Jsonout
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs
module Files = Educhip_util.Files

let check = Alcotest.check

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let with_cache_dir f =
  let dir = temp_dir "educhip_sched_test" in
  Fun.protect ~finally:(fun () -> Files.rm_rf dir) (fun () -> f dir)

(* {2 Manifest parsing} *)

let test_manifest_parse () =
  let m =
    Manifest.parse_string
      "# campaign\n\
       tenant uni-a weight=2.5\n\
       gray8 tenant=uni-a preset=commercial priority=3 clock-ps=2500 seed=7\n\
       counter inject=flow.routing:crash@2,flow.synthesis:hang retries=4 repeat=2\n"
  in
  check Alcotest.int "jobs (repeat expanded)" 3 (List.length m.Manifest.jobs);
  check Alcotest.(list (pair string (float 1e-9))) "weights" [ ("uni-a", 2.5) ]
    m.Manifest.weights;
  let j0 = List.nth m.Manifest.jobs 0 in
  check Alcotest.int "index 0" 0 j0.Manifest.index;
  check Alcotest.string "design" "gray8" j0.Manifest.design;
  check Alcotest.string "tenant" "uni-a" j0.Manifest.tenant;
  check Alcotest.int "priority" 3 j0.Manifest.priority;
  check Alcotest.string "preset" "commercial" (Flow.preset_name j0.Manifest.preset);
  check Alcotest.(option (float 1e-9)) "clock" (Some 2500.0) j0.Manifest.clock_ps;
  check Alcotest.int "seed" 7 j0.Manifest.fault_seed;
  let j1 = List.nth m.Manifest.jobs 1 in
  let j2 = List.nth m.Manifest.jobs 2 in
  check Alcotest.int "index 1" 1 j1.Manifest.index;
  check Alcotest.int "index 2" 2 j2.Manifest.index;
  check Alcotest.string "repeat clones design" j1.Manifest.design j2.Manifest.design;
  check Alcotest.int "retries" 4 j1.Manifest.retries;
  check Alcotest.(list string) "inject plan"
    [ "flow.routing:crash@2"; "flow.synthesis:hang" ]
    (List.map Fault.arming_to_string j1.Manifest.inject)

let test_manifest_rejects () =
  List.iter
    (fun (label, text) ->
      match Manifest.parse_string text with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %s" label)
    [
      ("unknown design", "nosuchdesign\n");
      ("unknown node", "gray8 node=edu999\n");
      ("unknown preset", "gray8 preset=fast\n");
      ("bad priority", "gray8 priority=0\n");
      ("bad inject", "gray8 inject=flow.routing:explode\n");
      ("bad weight", "tenant a weight=-1\ngray8 tenant=a\n");
      ("duplicate tenant", "tenant a\ntenant a\ngray8\n");
      ("unknown key", "gray8 color=red\n");
      ("empty manifest", "# nothing\n");
    ]

(* {2 Fair-share queue} *)

let mk_job index tenant priority =
  { Manifest.default_job with Manifest.index; design = "gray8"; tenant; priority }

let drain q =
  let rec go acc =
    match Fairshare.pop q with None -> List.rev acc | Some j -> go (j :: acc)
  in
  go []

let test_fairshare_interleaves () =
  (* tenant a floods the queue first; equal weights must still alternate
     dispatches rather than starving b behind a's backlog *)
  let jobs =
    List.init 4 (fun i -> mk_job i "a" 1) @ [ mk_job 4 "b" 1; mk_job 5 "b" 1 ]
  in
  let order =
    List.map (fun j -> j.Manifest.tenant) (drain (Fairshare.create jobs))
  in
  check Alcotest.(list string) "alternates until b drains"
    [ "a"; "b"; "a"; "b"; "a"; "a" ] order

let test_fairshare_weights_and_priority () =
  let jobs =
    [ mk_job 0 "a" 1; mk_job 1 "a" 1; mk_job 2 "a" 1; mk_job 3 "a" 9;
      mk_job 4 "b" 1; mk_job 5 "b" 1 ]
  in
  let q = Fairshare.create ~weights:[ ("a", 2.0) ] jobs in
  let order = List.map (fun j -> j.Manifest.index) (drain q) in
  (* stride walk: a pays 0.5 vtime per dispatch, b pays 1.0, name breaks
     ties -> a b a a b a; a's priority-9 job (#3) jumps its lane's line *)
  check Alcotest.(list int) "weighted + priority order" [ 3; 4; 0; 1; 5; 2 ] order;
  check Alcotest.int "drained" 0 (Fairshare.depth q)

let test_fairshare_requeue_front () =
  let q = Fairshare.create [ mk_job 0 "a" 1; mk_job 1 "a" 1 ] in
  let first = Option.get (Fairshare.pop q) in
  check Alcotest.int "first out" 0 first.Manifest.index;
  Fairshare.requeue q first;
  check Alcotest.int "depth restored" 2 (Fairshare.depth q);
  check Alcotest.int "requeued job dispatches before the rest" 0
    (Option.get (Fairshare.pop q)).Manifest.index

(* {2 Cache} *)

let gray8 = Designs.netlist (Designs.find "gray8")
let counter = Designs.netlist (Designs.find "counter")
let cfg130 = Flow.config ~node:(Pdk.find_node "edu130") Flow.Open_flow

let key ?(netlist = gray8) ?(cfg = cfg130) ?(inject = []) ?(fault_seed = 1)
    ?(retries = 2) () =
  Cache.job_key ~netlist ~cfg ~inject ~fault_seed ~retries

let test_cache_key_sensitivity () =
  check Alcotest.string "key is deterministic" (key ()) (key ());
  let base = key () in
  let different =
    [
      ("netlist", key ~netlist:counter ());
      ("config", key ~cfg:(Flow.config ~node:(Pdk.find_node "edu130") Flow.Teaching_flow) ());
      ("clock", key ~cfg:(Flow.config ~node:(Pdk.find_node "edu130") ~clock_period_ps:9999.0 Flow.Open_flow) ());
      ("node", key ~cfg:(Flow.config ~node:(Pdk.find_node "edu28") Flow.Open_flow) ());
      ("inject", key ~inject:[ Fault.arming "flow.routing" Fault.Crash ] ());
      ("seed", key ~fault_seed:2 ());
      ("retries", key ~retries:3 ());
    ]
  in
  List.iter
    (fun (label, k) ->
      if k = base then Alcotest.failf "%s change did not change the key" label)
    different

let sample_entry cache_key =
  let outcome = Flow.run_guarded gray8 cfg130 in
  let record =
    Flow.ledger_record ~design:"gray8" ~node:"edu130" ~preset:"open" outcome
  in
  let ppa = match outcome with Flow.Completed r -> Some r.Flow.ppa | _ -> None in
  {
    Cache.key = cache_key;
    verdict = Flow.verdict_to_string (Flow.outcome_verdict outcome);
    ppa;
    record;
  }

let test_cache_roundtrip () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let k = key () in
      check Alcotest.bool "cold probe" false (Cache.probe cache k);
      check Alcotest.bool "cold lookup" true (Cache.lookup cache k = None);
      let e = sample_entry k in
      Cache.store cache e;
      check Alcotest.bool "warm probe" true (Cache.probe cache k);
      let e' = Option.get (Cache.lookup cache k) in
      check Alcotest.string "verdict survives" e.Cache.verdict e'.Cache.verdict;
      (match (e.Cache.ppa, e'.Cache.ppa) with
      | Some a, Some b ->
        (* the whole point of the cache: replayed PPA is bit-identical *)
        check Alcotest.bool "ppa bit-identical" true (a = b)
      | _ -> Alcotest.fail "ppa lost in round trip");
      check Alcotest.string "record design" e.Cache.record.Runlog.design
        e'.Cache.record.Runlog.design;
      check Alcotest.int "one entry" 1 (Cache.entries cache);
      Cache.clear cache;
      check Alcotest.int "cleared" 0 (Cache.entries cache))

let test_cache_lru_eviction () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~max_entries:3 ~dir () in
      let keys = List.init 4 (fun i -> key ~fault_seed:(100 + i) ()) in
      let e = sample_entry (List.hd keys) in
      List.iteri
        (fun i k ->
          (* mtime-ordered LRU needs distinct timestamps *)
          if i > 0 then Unix.sleepf 0.02;
          Cache.store cache { e with Cache.key = k })
        keys;
      check Alcotest.int "capped at 3" 3 (Cache.entries cache);
      check Alcotest.bool "oldest evicted" false (Cache.probe cache (List.hd keys));
      check Alcotest.bool "newest kept" true
        (Cache.probe cache (List.nth keys 3)))

let test_cache_corrupt_entry_is_miss () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let k = key () in
      Cache.store cache (sample_entry k);
      let path = Filename.concat dir (k ^ ".json") in
      let oc = open_out path in
      output_string oc "{ not json";
      close_out oc;
      check Alcotest.bool "corrupt entry misses" true (Cache.lookup cache k = None);
      (* the evidence is preserved for post-mortem, not destroyed *)
      check Alcotest.bool "moved out of the cache" false (Sys.file_exists path);
      check Alcotest.int "quarantined" 1 (Cache.quarantined cache);
      check Alcotest.bool "file kept in quarantine/" true
        (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") (k ^ ".json"))))

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* a stored entry whose bytes were silently flipped (bit rot, partial
   write) fails its checksum and is quarantined the same way; so is one
   with no crc trailer at all *)
let test_cache_checksum_guard () =
  let flip_digit text =
    (* flip one digit inside the verdict/ppa region: still valid JSON,
       wrong bytes *)
    let i =
      let rec find i =
        if i >= String.length text then Alcotest.fail "no digit to flip"
        else
          match text.[i] with '1' .. '8' -> i | _ -> find (i + 1)
      in
      find 0
    in
    let bytes = Bytes.of_string text in
    Bytes.set bytes i (Char.chr (Char.code text.[i] + 1));
    Bytes.to_string bytes
  in
  (* the payload alone: the file ends without Kv's 16-byte crc trailer *)
  let strip_crc text = String.sub text 0 (String.length text - 16) in
  List.iter
    (fun (label, tamper) ->
      with_cache_dir (fun dir ->
          let cache = Cache.create ~dir () in
          let k = key () in
          Cache.store cache (sample_entry k);
          let path = Filename.concat dir (k ^ ".json") in
          write_file path (tamper (read_file path));
          check Alcotest.bool (label ^ " entry misses") true (Cache.lookup cache k = None);
          check Alcotest.int (label ^ " entry quarantined") 1 (Cache.quarantined cache)))
    [ ("tampered", flip_digit); ("crc-less", strip_crc) ]

(* a dry-run prediction must not mutate the store: a corrupt entry
   probes as a miss but stays where it is, unquarantined and uncounted *)
let test_cache_probe_read_only () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let k = key () in
      Cache.store cache (sample_entry k);
      let path = Filename.concat dir (k ^ ".json") in
      write_file path "{ not json";
      let c = Obs.create () in
      Obs.with_collector c (fun () ->
          check Alcotest.bool "corrupt entry probes false" false (Cache.probe cache k));
      check Alcotest.bool "file still in place" true (Sys.file_exists path);
      check Alcotest.int "nothing quarantined" 0 (Cache.quarantined cache);
      check Alcotest.int "no quarantine counted" 0
        (Obs.counter_value c "cache.quarantined"))

(* {2 Scheduler} *)

let campaign_manifest =
  Manifest.parse_string ~source:"test"
    "tenant uni-a weight=2\n\
     gray8 tenant=uni-a\n\
     counter tenant=uni-a preset=teaching\n\
     mult4 tenant=uni-b\n\
     lfsr16 tenant=uni-b inject=flow.routing:crash@1 retries=2\n"

let qor_signature results =
  List.map
    (fun (r : Sched.job_result) ->
      ( r.Sched.job.Manifest.index,
        r.Sched.verdict,
        r.Sched.ppa,
        (match r.Sched.record.Runlog.qor with
        | Some q -> (q.Runlog.cells, q.Runlog.area_um2, q.Runlog.wns_ps)
        | None -> (0, 0.0, 0.0)) ))
    results

let test_sched_worker_count_invariance () =
  let run workers = fst (Sched.run ~workers campaign_manifest) in
  let serial = qor_signature (run 1) in
  check Alcotest.bool "2 workers = serial" true (qor_signature (run 2) = serial);
  check Alcotest.bool "8 workers = serial" true (qor_signature (run 8) = serial)

let test_sched_results_in_manifest_order () =
  let results, summary = Sched.run ~workers:3 campaign_manifest in
  check Alcotest.(list int) "index order" [ 0; 1; 2; 3 ]
    (List.map (fun (r : Sched.job_result) -> r.Sched.job.Manifest.index) results);
  check Alcotest.int "all completed" 4 summary.Sched.completed;
  check Alcotest.int "none failed" 0 summary.Sched.failed;
  check Alcotest.int "no cache -> no hits" 0
    (summary.Sched.cache_hits + summary.Sched.cache_misses)

let test_sched_cache_cold_then_warm () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let cold, s_cold = Sched.run ~workers:2 ~cache campaign_manifest in
      check Alcotest.int "cold misses" 4 s_cold.Sched.cache_misses;
      check Alcotest.int "cold hits" 0 s_cold.Sched.cache_hits;
      let warm, s_warm = Sched.run ~workers:2 ~cache campaign_manifest in
      check Alcotest.int "warm hits" 4 s_warm.Sched.cache_hits;
      check Alcotest.int "warm misses" 0 s_warm.Sched.cache_misses;
      check Alcotest.bool "warm results identical" true
        (qor_signature warm = qor_signature cold);
      check Alcotest.bool "warm results flagged" true
        (List.for_all (fun (r : Sched.job_result) -> r.Sched.from_cache) warm);
      (* perturbing the fault seed must miss: the key covers it *)
      let perturbed =
        {
          campaign_manifest with
          Manifest.jobs =
            List.map
              (fun (j : Manifest.job) -> { j with Manifest.fault_seed = 99 })
              campaign_manifest.Manifest.jobs;
        }
      in
      let _, s_miss = Sched.run ~workers:2 ~cache perturbed in
      check Alcotest.int "perturbed config misses" 4 s_miss.Sched.cache_misses)

let test_sched_worker_crash_requeues () =
  let manifest =
    Manifest.parse_string ~source:"test" "gray8 crash-workers=2\ncounter\n"
  in
  let results, summary = Sched.run ~workers:2 ~max_requeues:2 manifest in
  let crashed = List.hd results in
  check Alcotest.string "job recovered" "ok" crashed.Sched.verdict;
  check Alcotest.int "requeued twice" 2 crashed.Sched.requeues;
  check Alcotest.int "summary requeues" 2 summary.Sched.requeues;
  check Alcotest.int "all completed" 2 summary.Sched.completed;
  (* same campaign with an exhausted requeue budget must fail the job
     but still complete the rest *)
  let results, summary = Sched.run ~workers:2 ~max_requeues:1 manifest in
  let crashed = List.hd results in
  check Alcotest.bool "budget exhausted -> failed" true
    (String.length crashed.Sched.verdict >= 6
    && String.sub crashed.Sched.verdict 0 6 = "failed");
  check Alcotest.int "one failed" 1 summary.Sched.failed;
  check Alcotest.int "other job unaffected" 1 summary.Sched.completed

let test_sched_telemetry_merge () =
  let c = Obs.create () in
  let _, summary =
    Obs.with_collector c (fun () -> Sched.run ~workers:2 campaign_manifest)
  in
  check Alcotest.int "completed counter"
    summary.Sched.completed
    (Obs.counter_value c "sched.jobs_completed");
  check Alcotest.(option (float 1e-9)) "workers gauge" (Some 2.0)
    (Obs.gauge_value c "sched.workers");
  check Alcotest.int "wait histogram has one sample per job" 4
    (List.length (Obs.histogram_samples c "sched.queue_wait_ms"));
  (* worker-side flow telemetry merged into the caller's collector *)
  check Alcotest.bool "flow spans merged" true
    (List.exists
       (fun s -> Obs.span_name s = "flow.run")
       (Obs.root_spans c))

(* a caller whose collector keeps no spans gets the workers' metrics
   and no span trees: the pool's workers keep none either *)
let test_sched_unkept_spans () =
  let c = Obs.create ~spans:false () in
  let _, summary = Obs.with_collector c (fun () -> Sched.run ~workers:2 campaign_manifest) in
  check Alcotest.int "completed counter" summary.Sched.completed
    (Obs.counter_value c "sched.jobs_completed");
  check Alcotest.bool "worker flow telemetry merged" true
    (Obs.counter_value c "route.searches" > 0);
  check Alcotest.int "no span trees" 0 (List.length (Obs.root_spans c))

(* a stop that holds from the start dispatches nothing: every job comes
   back cancelled, in manifest order, and no flow or cache probe runs *)
let test_sched_stop_cancels_everything () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let results, summary =
        Sched.run ~workers:2 ~cache ~stop:(fun () -> true) campaign_manifest
      in
      check Alcotest.(list int) "manifest order" [ 0; 1; 2; 3 ]
        (List.map (fun (r : Sched.job_result) -> r.Sched.job.Manifest.index) results);
      List.iter
        (fun (r : Sched.job_result) ->
          check Alcotest.string "cancelled" "failed(cancelled before execution)"
            r.Sched.verdict;
          check Alcotest.bool "no ppa" true (r.Sched.ppa = None);
          check Alcotest.int "no worker" (-1) r.Sched.worker)
        results;
      check Alcotest.int "all failed" 4 summary.Sched.failed;
      check Alcotest.int "none completed" 0 summary.Sched.completed;
      check Alcotest.int "no cache probe" 0
        (summary.Sched.cache_hits + summary.Sched.cache_misses))

(* {2 Concurrent ledger appends} *)

(* the documented no-torn-lines promise: domains appending to one ledger
   never split or interleave a line *)
let test_runlog_concurrent_append () =
  let path = Filename.temp_file "educhip_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let per_domain = 500 in
      let record i =
        Runlog.make ~design:(Printf.sprintf "d%d" i) ~node:"edu130" ~preset:"open"
          ~verdict:"ok" ~total_wall_ms:1.0 ()
      in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  Runlog.append ~path (record ((d * per_domain) + i))
                done))
      in
      List.iter Domain.join domains;
      let designs = List.map (fun r -> r.Runlog.design) (Runlog.load ~path) in
      check Alcotest.int "all records intact" (4 * per_domain) (List.length designs);
      check Alcotest.int "each exactly once" (4 * per_domain)
        (List.length (List.sort_uniq compare designs)))

let suite =
  [
    Alcotest.test_case "manifest: parse fields, repeat, weights" `Quick
      test_manifest_parse;
    Alcotest.test_case "manifest: malformed inputs rejected" `Quick
      test_manifest_rejects;
    Alcotest.test_case "fairshare: no starvation behind a backlog" `Quick
      test_fairshare_interleaves;
    Alcotest.test_case "fairshare: weights and priorities order dispatch" `Quick
      test_fairshare_weights_and_priority;
    Alcotest.test_case "fairshare: requeue goes to the front" `Quick
      test_fairshare_requeue_front;
    Alcotest.test_case "cache: key covers every input" `Quick
      test_cache_key_sensitivity;
    Alcotest.test_case "cache: entry round trip is bit-exact" `Quick
      test_cache_roundtrip;
    Alcotest.test_case "cache: LRU eviction at the cap" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "cache: corrupt entries are quarantined misses" `Quick
      test_cache_corrupt_entry_is_miss;
    Alcotest.test_case "cache: checksum guards against bit rot" `Quick
      test_cache_checksum_guard;
    Alcotest.test_case "cache: probe is read-only on corrupt entries" `Quick
      test_cache_probe_read_only;
    Alcotest.test_case "sched: results invariant under worker count" `Quick
      test_sched_worker_count_invariance;
    Alcotest.test_case "sched: manifest-ordered results and totals" `Quick
      test_sched_results_in_manifest_order;
    Alcotest.test_case "sched: cold misses, warm hits, perturbed misses" `Quick
      test_sched_cache_cold_then_warm;
    Alcotest.test_case "sched: worker crashes requeue within budget" `Quick
      test_sched_worker_crash_requeues;
    Alcotest.test_case "sched: telemetry merges into the caller" `Quick
      test_sched_telemetry_merge;
    Alcotest.test_case "sched: a caller that keeps no spans gets none" `Quick
      test_sched_unkept_spans;
    Alcotest.test_case "sched: stop before dispatch cancels every job" `Quick
      test_sched_stop_cancels_everything;
    Alcotest.test_case "runlog: concurrent appends stay line-atomic" `Quick
      test_runlog_concurrent_append;
  ]
