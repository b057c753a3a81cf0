module Flow = Educhip_flow.Flow
module Pdk = Educhip_pdk.Pdk
module Place = Educhip_place.Place
module Route = Educhip_route.Route
module Synth = Educhip_synth.Synth
module Designs = Educhip_designs.Designs
module Netlist = Educhip_netlist.Netlist
module Fault = Educhip_fault.Fault
module Stepkey = Educhip_artifact.Stepkey
module Artifact = Educhip_artifact.Artifact
module Astore = Educhip_artifact.Store
module Kv = Educhip_artifact.Kv
module Gds = Educhip_gds.Gds
module Codec = Educhip_artifact.Codec
module Jsonout = Educhip_obs.Jsonout
module Crc32 = Educhip_util.Crc32
module Obs = Educhip_obs.Obs
module Runlog = Educhip_obs.Runlog
module Files = Educhip_util.Files

let check = Alcotest.check

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let with_store_dir f =
  let dir = temp_dir "educhip_artifact_test" in
  Fun.protect ~finally:(fun () -> Files.rm_rf dir) (fun () -> f dir)

let node130 = Pdk.find_node "edu130"
let counter = Designs.netlist (Designs.find "counter")

let chain_of cfg =
  Stepkey.chain ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2

(* {2 Key chain shape} *)

let test_chain_shape () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let chain = chain_of cfg in
  check Alcotest.(list string) "one key per stored step, flow order"
    Flow.stored_step_names (List.map fst chain);
  check Alcotest.int "nine stored steps: all but gds" 9 (List.length chain);
  let keys = List.map snd chain in
  check Alcotest.int "all keys distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  check Alcotest.(list string) "deterministic" keys (List.map snd (chain_of cfg))

(* Stores written while [gds] was still stored keyed the other nine
   steps with exactly these strings: matching them keeps such stores
   warm, and their orphaned [gds] entries age out under the LRU cap. *)
let test_chain_keys_pinned () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  check
    Alcotest.(list (pair string string))
    "counter/open/edu130 keys"
    [
      ("synthesis", "cccf5af59f62b59c77bff4baa42e5c34");
      ("sizing", "a50ac3f852960a95809cc6d5dcf58e94");
      ("buffering", "05b382dd0e014afcba997d00640d9ffc");
      ("placement", "72889659ae65dee733182ffb7bb25b66");
      ("cts", "d0c5058fa06f13760a282dd92186fc52");
      ("routing", "f092f628de9671c630096ec17ea95532");
      ("sta", "9aa2b7e7cb343748201e651e77e1bfb9");
      ("power", "87e3cf061801e1d028d9d3076899158f");
      ("drc", "b91146b6d4f0bd01189591fffa4ca9c0");
    ]
    (chain_of cfg)

let test_chain_rtl_sensitivity () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let other = Designs.netlist (Designs.find "gray8") in
  let k1 = List.map snd (chain_of cfg) in
  let k2 =
    List.map snd
      (Stepkey.chain ~netlist:other ~cfg ~inject:[] ~fault_seed:1 ~retries:2)
  in
  List.iter2
    (fun a b -> check Alcotest.bool "RTL change rekeys every step" true (a <> b))
    k1 k2

(* {2 Slice property}

   Perturbing the knobs of step N must leave keys of steps < N unchanged
   and change every key >= N — the warm-prefix invariant the resume
   logic relies on. One entry per perturbable knob, with the index of the
   first step whose slice sees it (stored-step order: synthesis 0,
   sizing 1, buffering 2, placement 3, cts 4, routing 5, sta 6, power 7,
   drc 8). *)

let knobs =
  [
    ( "synth_passes",
      (fun (c : Flow.config) k ->
        { c with
          synth_options =
            { c.synth_options with
              Synth.optimization_passes = c.synth_options.Synth.optimization_passes + 1 + k
            } }),
      0 );
    ("sizing_rounds", (fun c k -> { c with Flow.sizing_rounds = c.Flow.sizing_rounds + 1 + k }), 1);
    ("max_fanout", (fun c k -> { c with Flow.max_fanout = Some (4 + k) }), 2);
    ( "place_moves",
      (fun c k ->
        { c with
          Flow.place_effort =
            { c.Flow.place_effort with
              Place.annealing_moves = c.Flow.place_effort.Place.annealing_moves + 1 + k
            } }),
      3 );
    ( "utilization",
      (fun c k -> { c with Flow.utilization = c.Flow.utilization *. (0.9 -. (0.01 *. float_of_int (k mod 10))) }),
      3 );
    ( "route_seed",
      (fun c k ->
        { c with
          Flow.route_effort =
            { c.Flow.route_effort with Route.seed = c.Flow.route_effort.Route.seed + 1 + k }
        }),
      5 );
    ( "clock",
      (fun c k ->
        { c with Flow.clock_period_ps = c.Flow.clock_period_ps +. (7.0 *. float_of_int (1 + k)) }),
      6 );
    ("power_cycles", (fun c k -> { c with Flow.power_cycles = c.Flow.power_cycles + 1 + k }), 7);
  ]

let prop_knob_splits_chain =
  QCheck.Test.make ~name:"knob edit rekeys exactly the suffix at its step" ~count:100
    QCheck.(pair (int_bound (List.length knobs - 1)) small_nat)
    (fun (which, magnitude) ->
      let name, edit, first = List.nth knobs which in
      let base = Flow.config ~node:node130 Flow.Open_flow in
      let edited = edit base magnitude in
      (* a magnitude that happens to round-trip to the same signature is
         a no-op edit; the property is vacuous there *)
      QCheck.assume (Flow.config_signature base <> Flow.config_signature edited);
      let k1 = List.map snd (chain_of base) in
      let k2 = List.map snd (chain_of edited) in
      List.iteri
        (fun i (a, b) ->
          if i < first then (
            if a <> b then
              QCheck.Test.fail_reportf "%s: key %d (%s) changed above the edit" name i
                (List.nth Flow.stored_step_names i))
          else if a = b then
            QCheck.Test.fail_reportf "%s: key %d (%s) survived the edit" name i
              (List.nth Flow.stored_step_names i))
        (List.combine k1 k2);
      true)

(* {2 Fault slices} *)

let arm site fault = Fault.arming site fault

let test_fault_slice_locality () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let chain_with inject =
    List.map snd
      (Stepkey.chain ~netlist:counter ~cfg ~inject ~fault_seed:1 ~retries:2)
  in
  let base = chain_with [] in
  (* a Crash armed at the routing step leaves synthesis..cts keys alone *)
  let routed = chain_with [ arm "flow.routing" Fault.Crash ] in
  List.iteri
    (fun i (a, b) ->
      if i < 5 then check Alcotest.string "pre-routing key stable" a b
      else check Alcotest.bool "routing-onward key rekeyed" true (a <> b))
    (List.combine base routed);
  (* Crash + Hang couple sites through the injector RNG: every key moves *)
  let coupled =
    chain_with [ arm "flow.routing" Fault.Crash; arm "flow.sta" Fault.Hang ]
  in
  List.iter2
    (fun a b -> check Alcotest.bool "rng-coupled plan rekeys everything" true (a <> b))
    base coupled

(* {2 Warm rerun bit-identity}

   Cold-populate a store, edit a late-step knob, then run the edited
   config cold (no store) and warm (resuming from the artifact prefix):
   PPA, verdict, per-step reports, execution records, and the ledger
   record must be bit-identical. *)

let run_with ?memo cfg =
  match Flow.run_guarded ?memo counter cfg with
  | Flow.Completed r -> r
  | Flow.Aborted a -> Alcotest.failf "flow aborted: %s (%s)" a.Flow.failed_step a.Flow.failure_reason

let test_warm_rerun_bit_identical () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let memo_for cfg =
    Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2
  in
  let base = Flow.config ~node:node130 Flow.Open_flow in
  ignore (run_with ~memo:(memo_for base) base);
  check Alcotest.int "cold populate stores every stored step"
    (List.length Flow.stored_step_names) (Astore.entries store);
  let edited = { base with Flow.clock_period_ps = base.Flow.clock_period_ps *. 1.25 } in
  check Alcotest.int "clock edit resumes at sta" 6
    (Artifact.warm_prefix ~store ~netlist:counter ~cfg:edited ~inject:[] ~fault_seed:1
       ~retries:2);
  let cold = run_with edited in
  let warm = run_with ~memo:(memo_for edited) edited in
  check
    Alcotest.(list (pair string string))
    "step reports identical"
    (List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) cold.Flow.steps)
    (List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) warm.Flow.steps);
  check Alcotest.bool "ppa identical" true (cold.Flow.ppa = warm.Flow.ppa);
  check Alcotest.bool "verdict identical" true (cold.Flow.verdict = warm.Flow.verdict);
  check Alcotest.bool "exec records identical" true (cold.Flow.execs = warm.Flow.execs);
  let ledger r =
    Flow.ledger_record ~design:"counter" ~node:"edu130" ~preset:"open"
      (Flow.Completed r)
  in
  check Alcotest.bool "ledger record identical" true (ledger cold = ledger warm);
  (* the warm run only computed the suffix: sta, power, drc (and gds,
     which is rebuilt, not stored) *)
  check Alcotest.int "suffix artifacts stored" (9 + 3) (Astore.entries store)

(* A full replay restores every stored step and rebuilds the layout
   from the restored routing: the GDS stream and the gds step's report
   must match the cold run's. *)
let check_replay_identical ~(cold : Flow.result) ~(warm : Flow.result) =
  check Alcotest.bool "full replay bit-identical" true
    (cold.Flow.ppa = warm.Flow.ppa && cold.Flow.execs = warm.Flow.execs);
  check Alcotest.(list (pair string string)) "step details identical"
    (List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) cold.Flow.steps)
    (List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) warm.Flow.steps);
  check Alcotest.bool "rebuilt layout bit-identical" true
    (Bytes.equal (Gds.to_gds_bytes cold.Flow.layout) (Gds.to_gds_bytes warm.Flow.layout))

let test_full_replay_and_lru_cap () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir ~max_entries:10 () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let memo = Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  let cold = run_with ~memo cfg in
  check Alcotest.int "every stored step replays" (List.length Flow.stored_step_names)
    (Artifact.warm_prefix ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2);
  let warm = run_with ~memo cfg in
  check_replay_identical ~cold ~warm;
  check Alcotest.int "one chain fits under the cap" 9 (Astore.entries store);
  (* an RTL change under a full store evicts oldest entries instead of
     growing past the cap *)
  let other = Designs.netlist (Designs.find "gray8") in
  let memo2 = Artifact.memo ~store ~netlist:other ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  (match Flow.run_guarded ~memo:memo2 other cfg with
  | Flow.Completed _ -> ()
  | Flow.Aborted a -> Alcotest.failf "flow aborted: %s" a.Flow.failed_step);
  check Alcotest.int "eviction holds the cap" 10 (Astore.entries store)

(* gds is never stored, so a full-chain replay reruns it live under its
   guard: an armed flow.gds crash fires again and is retried again, and
   the exec records match the cold run's. *)
let test_gds_crash_reruns_live () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let inject = [ arm "flow.gds" Fault.Crash ] in
  let memo = Artifact.memo ~store ~netlist:counter ~cfg ~inject ~fault_seed:1 ~retries:2 in
  let run () =
    Fault.with_plan ~seed:1 inject (fun () ->
        let r = run_with ~memo cfg in
        (r, Fault.remaining "flow.gds"))
  in
  let cold, _ = run () in
  let gds_attempts (r : Flow.result) =
    (List.find (fun e -> e.Flow.step = "gds") r.Flow.execs).Flow.attempts
  in
  check Alcotest.int "cold gds retried once" 2 (gds_attempts cold);
  check Alcotest.int "every stored step replays" (List.length Flow.stored_step_names)
    (Artifact.warm_prefix ~store ~netlist:counter ~cfg ~inject ~fault_seed:1 ~retries:2);
  let warm, unfired = run () in
  check Alcotest.int "the replay's live gds consumed the crash" 0 unfired;
  check_replay_identical ~cold ~warm

(* The flow probes exactly the stored steps and saves every completed
   step, stored or not, so a save also marks each step's end. *)
let test_memo_hook_probes_stored_saves_all () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let m = Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  let probed = ref [] and saved = ref [] in
  let memo =
    {
      Flow.memo_probe = (fun step -> probed := step :: !probed; m.Flow.memo_probe step);
      memo_save =
        (fun step s ->
          let stored = match s.Flow.snap_state with Flow.S_not_stored -> false | _ -> true in
          saved := (step, stored) :: !saved;
          m.Flow.memo_save step s);
    }
  in
  ignore (run_with ~memo cfg);
  check
    Alcotest.(list (pair string bool))
    "cold run saves every step, gds without state"
    (List.map (fun s -> (s, s <> "gds")) Flow.step_names)
    (List.rev !saved);
  probed := [];
  saved := [];
  ignore (run_with ~memo cfg);
  check Alcotest.(list string) "full replay probes the stored steps" Flow.stored_step_names
    (List.rev !probed);
  check Alcotest.(list (pair string bool)) "full replay saves only gds" [ ("gds", false) ]
    (List.rev !saved)

let test_corrupt_artifact_quarantined () =
  with_store_dir @@ fun dir ->
  let store = Astore.create ~dir () in
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  let memo = Artifact.memo ~store ~netlist:counter ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  let cold = run_with ~memo cfg in
  (* truncate one stored entry mid-payload: the verified read must
     reject it, the run must fall back to computing that step, and the
     result must still be bit-identical *)
  let victim =
    match Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json") with
    | f :: _ -> Filename.concat dir f
    | [] -> Alcotest.fail "no artifacts stored"
  in
  let ic = open_in_bin victim in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin victim in
  output_string oc (String.sub body 0 (n / 2));
  close_out oc;
  let warm = run_with ~memo cfg in
  check Alcotest.bool "corruption-tolerant rerun bit-identical" true
    (cold.Flow.ppa = warm.Flow.ppa && cold.Flow.execs = warm.Flow.execs)

(* {2 Kv} *)

let kv_payload key v = Jsonout.Obj [ ("key", Jsonout.String key); ("v", Jsonout.Int v) ]

let kv_decode j =
  match (Jsonout.member "key" j, Jsonout.member "v" j) with
  | Some (Jsonout.String k), Some (Jsonout.Int v) -> (k, v)
  | _ -> failwith "kv test entry"

(* the byte format both stores have always written: payload object,
   then a trailing crc member over the payload bytes, then a newline *)
let test_kv_disk_format () =
  with_store_dir @@ fun dir ->
  let kv = Kv.create ~family:"t" ~dir () in
  Kv.put kv "a" (kv_payload "a" 1);
  let payload = {|{"key":"a","v":1}|} in
  let expected =
    Printf.sprintf {|{"key":"a","v":1,"crc":"%s"}|} (Crc32.to_hex (Crc32.digest payload)) ^ "\n"
  in
  check Alcotest.string "on-disk bytes" expected
    (In_channel.with_open_bin (Filename.concat dir "a.json") In_channel.input_all);
  check Alcotest.(option (pair string int)) "round trip" (Some ("a", 1))
    (Kv.get kv "a" ~decode:kv_decode)

(* four domains hammer an overlapping key set on a store capped at 3:
   the internal lock must keep every read whole and the cap held *)
let test_kv_concurrent_domains () =
  with_store_dir @@ fun dir ->
  let kv = Kv.create ~family:"t" ~max_entries:3 ~dir () in
  let keys = Array.init 5 (Printf.sprintf "k%d") in
  let worker d () =
    let rng = Random.State.make [| d |] in
    let bad = ref 0 and max_entries = ref 0 in
    for i = 1 to 150 do
      let key = keys.(Random.State.int rng (Array.length keys)) in
      if Random.State.bool rng then begin
        Kv.put kv key (kv_payload key ((d * 1000) + i));
        max_entries := max !max_entries (Kv.entries kv)
      end
      else
        match Kv.get kv key ~decode:kv_decode with
        | Some (k, _) when k <> key -> incr bad
        | Some _ | None -> ()
    done;
    (!bad, !max_entries)
  in
  let results = List.init 4 (fun d -> Domain.spawn (worker d)) |> List.map Domain.join in
  check Alcotest.int "every hit decodes to its own key" 0
    (List.fold_left (fun n (bad, _) -> n + bad) 0 results);
  check Alcotest.bool "cap held after every put" true
    (List.for_all (fun (_, m) -> m <= 3) results);
  check Alcotest.bool "cap held at the end" true (Kv.entries kv <= 3);
  check Alcotest.int "nothing quarantined" 0 (Kv.quarantined kv)

(* {3 Entry count} Each test sets every entry's mtime with
   [Unix.utimes], so the eviction order does not depend on the clock. *)

let kv_names dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".json")
  |> List.map Filename.remove_extension |> List.sort compare

let put_at kv dir key mtime =
  Kv.put kv key (kv_payload key (int_of_float mtime));
  Unix.utimes (Filename.concat dir (key ^ ".json")) mtime mtime

let counted f =
  let c = Obs.create () in
  let r = Obs.with_collector c f in
  (r, fun name -> Obs.counter_value c name)

let test_kv_puts_under_cap_list_once () =
  with_store_dir @@ fun dir ->
  let kv = Kv.create ~family:"t" ~max_entries:50 ~dir () in
  let (), ctr =
    counted (fun () ->
        for i = 1 to 40 do
          put_at kv dir (Printf.sprintf "k%02d" i) (float_of_int i)
        done)
  in
  check Alcotest.int "one listing" 1 (ctr "t.listings");
  check Alcotest.int "every put stored" 40 (ctr "t.stores");
  check Alcotest.int "nothing evicted" 0 (ctr "t.evicted");
  check Alcotest.int "all on disk" 40 (Kv.entries kv)

(* the survivors after each put are the ones a listing on every put
   would keep: the newest [cap] by (mtime, name), the new file newest *)
let test_kv_cap_crossing_evicts_oldest () =
  with_store_dir @@ fun dir ->
  let cap = 4 in
  let kv = Kv.create ~family:"t" ~max_entries:cap ~dir () in
  let mtimes = [| 50.; 10.; 30.; 10.; 40.; 20.; 10.; 60.; 5.; 30.; 70.; 15. |] in
  let model = ref [] in
  let (), ctr =
    counted (fun () ->
        Array.iteri
          (fun i mtime ->
            let key = Printf.sprintf "k%02d" i in
            put_at kv dir key mtime;
            let all = List.sort compare ((infinity, key) :: !model) in
            let excess = List.length all - cap in
            model :=
              List.filteri (fun j _ -> j >= excess) all
              |> List.map (fun (m, n) -> if n = key then (mtime, n) else (m, n));
            check
              Alcotest.(list string)
              (key ^ " survivors")
              (List.sort compare (List.map snd !model))
              (kv_names dir))
          mtimes)
  in
  let crossings = Array.length mtimes - cap in
  check Alcotest.int "one eviction per crossing" crossings (ctr "t.evicted");
  check Alcotest.int "the first put and each crossing list" (1 + crossings)
    (ctr "t.listings");
  (* the last listing left the count at the cap, so one freed slot takes
     one put without a listing *)
  let (), ctr =
    counted (fun () ->
        Kv.quarantine kv (snd (List.hd !model));
        put_at kv dir "k99" 99.)
  in
  check Alcotest.int "a freed slot fills without a listing" 0 (ctr "t.listings");
  check Alcotest.int "entries at the cap" cap (Kv.entries kv)

let test_kv_rewrite_does_not_evict () =
  with_store_dir @@ fun dir ->
  let kv = Kv.create ~family:"t" ~max_entries:3 ~dir () in
  let (), ctr =
    counted (fun () ->
        List.iteri (fun i key -> put_at kv dir key (float_of_int (i + 1))) [ "a"; "b"; "c" ];
        for round = 1 to 5 do
          List.iteri
            (fun i key -> put_at kv dir key (float_of_int ((10 * round) + i)))
            [ "c"; "a"; "b" ]
        done)
  in
  check Alcotest.int "nothing evicted" 0 (ctr "t.evicted");
  check Alcotest.int "one listing" 1 (ctr "t.listings");
  check Alcotest.(list string) "all keys kept" [ "a"; "b"; "c" ] (kv_names dir);
  check Alcotest.(option (pair string int)) "last write wins" (Some ("a", 51))
    (Kv.get kv "a" ~decode:kv_decode)

(* removals the store makes itself lower its count; a file deleted
   behind its back leaves the count high, so the store lists early *)
let test_kv_count_follows_removals () =
  with_store_dir @@ fun dir ->
  let kv = Kv.create ~family:"t" ~max_entries:3 ~dir () in
  let (), ctr =
    counted (fun () ->
        put_at kv dir "a" 1.;
        put_at kv dir "b" 2.;
        put_at kv dir "c" 3.;
        Kv.quarantine kv "a";
        put_at kv dir "d" 4.;
        check Alcotest.(list string) "quarantine frees a slot" [ "b"; "c"; "d" ] (kv_names dir);
        Kv.clear kv;
        put_at kv dir "e" 5.;
        put_at kv dir "f" 6.;
        put_at kv dir "g" 7.;
        Out_channel.with_open_bin (Filename.concat dir "g.json") (fun oc ->
            output_string oc "{\"torn");
        check Alcotest.(option (pair string int)) "corrupt entry misses" None
          (Kv.get kv "g" ~decode:kv_decode);
        put_at kv dir "h" 8.)
  in
  check Alcotest.int "quarantine, clear and a corrupt read list nothing" 1 (ctr "t.listings");
  check Alcotest.int "nor evict" 0 (ctr "t.evicted");
  check Alcotest.(list string) "live entries" [ "e"; "f"; "h" ] (kv_names dir);
  Sys.remove (Filename.concat dir "e.json");
  let (), ctr = counted (fun () -> put_at kv dir "i" 9.) in
  check Alcotest.int "an outside delete makes the store list early" 1 (ctr "t.listings");
  check Alcotest.int "and evict nothing" 0 (ctr "t.evicted");
  let (), ctr = counted (fun () -> put_at kv dir "j" 10.) in
  check Alcotest.int "the recount holds: the next crossing lists" 1 (ctr "t.listings");
  check Alcotest.(list string) "and evicts the oldest" [ "h"; "i"; "j" ] (kv_names dir);
  check Alcotest.int "quarantined" 2 (Kv.quarantined kv)

(* Two stores on one directory each count only their own writes between
   listings, so the directory can run over the cap until one of them
   lists; a put that lists brings it back to the cap. *)
let test_kv_shared_directory () =
  with_store_dir @@ fun dir ->
  let cap = 4 in
  let a = Kv.create ~family:"a" ~max_entries:cap ~dir () in
  let b = Kv.create ~family:"b" ~max_entries:cap ~dir () in
  let c = Obs.create () in
  let listings () = Obs.counter_value c "a.listings" + Obs.counter_value c "b.listings" in
  let overshoots = ref 0 in
  Obs.with_collector c (fun () ->
      for i = 0 to 23 do
        let kv = if i mod 3 = 0 then b else a in
        let key = Printf.sprintf "k%02d" i in
        let before = listings () in
        put_at kv dir key (float_of_int (i + 1));
        let n = List.length (kv_names dir) in
        if listings () > before then
          check Alcotest.bool (Printf.sprintf "%s: %d entries after a listing" key n) true
            (n <= cap)
        else if n > cap then incr overshoots
      done);
  check Alcotest.bool "both stores listed" true
    (Obs.counter_value c "a.listings" > 1 && Obs.counter_value c "b.listings" > 1);
  check Alcotest.bool "the other store's writes overshoot until a listing" true
    (!overshoots > 0)

(* A stored routing state whose first net names an edge the grid does
   not have decodes as corruption, not as a route. *)
let test_route_decode_rejects_phantom_edge () =
  let r = Flow.run counter (Flow.config ~node:node130 Flow.Open_flow) in
  let tag, json = Codec.state_to_json (Flow.S_route r.Flow.routed) in
  let nx, _ = Route.grid_size r.Flow.routed in
  let phantom = Jsonout.List [ Jsonout.Int (2 * (nx - 1)) ] in
  let tamper_first_net = function
    | Jsonout.Obj net :: rest ->
      Jsonout.Obj (List.map (fun (k, v) -> if k = "edges" then (k, phantom) else (k, v)) net)
      :: rest
    | _ -> Alcotest.fail "routing state has no nets"
  in
  let json =
    match json with
    | Jsonout.Obj fields ->
      Jsonout.Obj
        (List.map
           (function
             | "nets", Jsonout.List nets -> ("nets", Jsonout.List (tamper_first_net nets))
             | field -> field)
           fields)
    | _ -> Alcotest.fail "routing state is not an object"
  in
  let ctx =
    { Codec.design_name = "counter"; node = node130; netlist = Some r.Flow.mapped;
      placement = Some r.Flow.placement }
  in
  match Codec.state_of_json ctx ~tag json with
  | _ -> Alcotest.fail "phantom edge decoded"
  | exception Failure _ -> ()

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_knob_splits_chain ]
  @ [
      ("chain shape", `Quick, test_chain_shape);
      ("chain keys pinned", `Quick, test_chain_keys_pinned);
      ("chain RTL sensitivity", `Quick, test_chain_rtl_sensitivity);
      ("fault slice locality", `Quick, test_fault_slice_locality);
      ("warm rerun bit-identical", `Quick, test_warm_rerun_bit_identical);
      ("full replay and LRU cap", `Quick, test_full_replay_and_lru_cap);
      ("gds crash reruns live on replay", `Quick, test_gds_crash_reruns_live);
      ("memo hook probes stored, saves all", `Quick, test_memo_hook_probes_stored_saves_all);
      ("corrupt artifact quarantined", `Quick, test_corrupt_artifact_quarantined);
      ("kv on-disk format", `Quick, test_kv_disk_format);
      ("kv concurrent domains under a cap", `Quick, test_kv_concurrent_domains);
      ("kv puts under the cap list once", `Quick, test_kv_puts_under_cap_list_once);
      ("kv cap crossing evicts oldest", `Quick, test_kv_cap_crossing_evicts_oldest);
      ("kv rewrite does not evict", `Quick, test_kv_rewrite_does_not_evict);
      ("kv count follows removals", `Quick, test_kv_count_follows_removals);
      ("kv shared directory", `Quick, test_kv_shared_directory);
      ("route decode rejects phantom edge", `Quick, test_route_decode_rejects_phantom_edge);
    ]
