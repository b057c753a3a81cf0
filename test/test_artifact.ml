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

(* The keys of one chain, pinned: a change to any of them orphans every
   stored artifact, so it must come with a [Stepkey.version] bump on
   purpose. Version 2 moved the stored bytes to [Codec]'s binary form. *)
let test_chain_keys_pinned () =
  let cfg = Flow.config ~node:node130 Flow.Open_flow in
  check
    Alcotest.(list (pair string string))
    "counter/open/edu130 keys"
    [
      ("synthesis", "9817c960cfa0ded895b56ce5843c9d90");
      ("sizing", "307cbe75d7ead633e808ee7922736c0a");
      ("buffering", "790f0e5c8e437781e6e6d589504e25ef");
      ("placement", "56cc8b775988202630259b1970bc3a25");
      ("cts", "545e2995dec072598798e38de0406173");
      ("routing", "bb485b44a0be6ca7e00619e017314297");
      ("sta", "eadec4a91506434894480504b93fc78c");
      ("power", "a61f013f07bc51e0eda78982b8e9c782");
      ("drc", "0f1002282c263d662bc321a5da97413a");
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

let kv_payload key v = Jsonout.to_string (Jsonout.Obj [ ("key", Jsonout.String key); ("v", Jsonout.Int v) ])

let kv_decode text ~len =
  let j = Jsonout.of_string (String.sub text 0 len) in
  match (Jsonout.member "key" j, Jsonout.member "v" j) with
  | Some (Jsonout.String k), Some (Jsonout.Int v) -> (k, v)
  | _ -> failwith "kv test entry"

(* the byte format both stores write: the payload bytes, then a 16-byte
   trailer holding the CRC-32 of the payload *)
let test_kv_disk_format () =
  with_store_dir @@ fun dir ->
  let kv = Kv.create ~family:"t" ~dir () in
  Kv.put kv "a" (kv_payload "a" 1);
  let payload = {|{"key":"a","v":1}|} in
  let expected = Printf.sprintf "%s\ncrc32 %s\n" payload (Crc32.to_hex (Crc32.digest payload)) in
  check Alcotest.string "on-disk bytes" expected
    (In_channel.with_open_bin (Filename.concat dir "a.json") In_channel.input_all);
  check Alcotest.(option (pair string int)) "round trip" (Some ("a", 1))
    (Kv.get kv "a" ~decode:kv_decode);
  (* an entry an older build wrote: the crc spliced into the JSON object *)
  let old = Printf.sprintf {|{"key":"a","v":1,"crc":"%s"}|} (Crc32.to_hex (Crc32.digest payload)) in
  Out_channel.with_open_bin (Filename.concat dir "a.json") (fun oc -> output_string oc (old ^ "\n"));
  check Alcotest.(option (pair string int)) "older format misses" None
    (Kv.get kv "a" ~decode:kv_decode);
  check Alcotest.int "and is quarantined" 1 (Kv.quarantined kv)

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
  let snap = Route.snapshot r.Flow.routed in
  let tag, bytes = Codec.encode_state (Flow.S_route r.Flow.routed) in
  check Alcotest.string "encode_route writes the stored bytes" bytes (Codec.encode_route snap);
  let nx, _ = Route.grid_size r.Flow.routed in
  let nets =
    match snap.Route.rs_nets with
    | net :: rest -> { net with Route.rs_edges = [ 2 * (nx - 1) ] } :: rest
    | [] -> Alcotest.fail "routing state has no nets"
  in
  let ctx =
    { Codec.design_name = "counter"; node = node130; netlist = Some r.Flow.mapped;
      placement = Some r.Flow.placement }
  in
  check Alcotest.bool "the untampered state decodes" true
    (Codec.decode_state ctx ~tag bytes <> None);
  match Codec.decode_state ctx ~tag (Codec.encode_route { snap with Route.rs_nets = nets }) with
  | _ -> Alcotest.fail "phantom edge decoded"
  | exception Failure _ -> ()

(* {2 Stored bytes}

   A chain's entries as the store holds them, each with the decode
   context the memo would have when it reaches that step. *)

let stored_chain design preset =
  with_store_dir @@ fun dir ->
  let netlist = Designs.netlist (Designs.find design) in
  let cfg = Flow.config ~node:node130 preset in
  let store = Astore.create ~dir () in
  let memo = Artifact.memo ~store ~netlist ~cfg ~inject:[] ~fault_seed:1 ~retries:2 in
  (match Flow.run_guarded ~memo netlist cfg with
  | Flow.Completed _ -> ()
  | Flow.Aborted a -> Alcotest.failf "flow aborted: %s" a.Flow.failed_step);
  let ctx = ref { Codec.design_name = design; node = node130; netlist = None; placement = None } in
  List.map
    (fun (step, key) ->
      let e =
        match Astore.lookup store key with
        | Some e -> e
        | None -> Alcotest.failf "%s %s: not stored" design step
      in
      let file = In_channel.with_open_bin (Filename.concat dir (key ^ ".json")) In_channel.input_all in
      check Alcotest.string (step ^ " entry re-encodes to its stored bytes")
        (String.sub file 0 (String.length file - 16))
        (Codec.encode_entry e);
      let here = !ctx in
      (match Codec.decode_state here ~tag:e.Astore.tag e.Astore.state with
      | Some (Flow.S_synth (n, _) | Flow.S_netlist n) -> ctx := { here with Codec.netlist = Some n }
      | Some (Flow.S_place p) -> ctx := { here with Codec.placement = Some p }
      | Some _ -> ()
      | None -> Alcotest.failf "%s %s: no decode context" design step);
      (step, e, here))
    (Stepkey.chain ~netlist ~cfg ~inject:[] ~fault_seed:1 ~retries:2)

(* The MD5 of every stored entry's bytes for counter/open: a change here
   is a change of the on-disk format, and needs a [Stepkey.version] bump
   so that no build reads another's bytes under one key. *)
let test_encoding_pinned () =
  check
    Alcotest.(list (triple string string string))
    "counter/open/edu130 entry bytes"
    [
      ("synthesis", "synth", "81fe21e747190b42a7a4056742db7f1b");
      ("sizing", "netlist", "66154bf0c340b2528cd4e23afd878405");
      ("buffering", "netlist", "e0bb968b116217ed49b3e509db1d7bc0");
      ("placement", "place", "55cdfc2a585b496035ce0f6b230e4015");
      ("cts", "cts", "97c3e4873b79f93c893e5ba0b4e7701c");
      ("routing", "route", "bddcfb5f7b0eb2effc60fc12ea166521");
      ("sta", "timing", "a67cd55100990f57b3446a563720f036");
      ("power", "power", "1cf3af4369b0f29d082ef663342f628a");
      ("drc", "drc", "55283b9e0d1c0aeedbd64d87bc29af0c");
    ]
    (List.map
       (fun (step, e, _) -> (step, e.Astore.tag, Digest.to_hex (Digest.string (Codec.encode_entry e))))
       (stored_chain "counter" Flow.Open_flow))

(* {3 Hostile bytes} Starting from a valid entry of every tag, a
   mutated entry, or a mutated state inside a valid entry, must decode
   to [Failure] (the store quarantines it and counts a miss) or to a
   state the kernels' [restore] validators accepted; no other exception
   may escape. *)

let hostile_entries =
  lazy
    (Array.of_list
       (List.map
          (fun (_, e, ctx) -> (e, ctx))
          (stored_chain "counter" Flow.Open_flow @ stored_chain "alu8" Flow.Teaching_flow)))

let entry_fails bytes =
  match Codec.decode_entry bytes ~len:(String.length bytes) with
  | _ -> false
  | exception Failure _ -> true

let state_fails ctx ~tag bytes =
  match Codec.decode_state ctx ~tag bytes with
  | _ -> false
  | exception Failure _ -> true

(* the offset just past the varint starting at [i] *)
let rec varint_end bytes i =
  if i < String.length bytes - 1 && Char.code bytes.[i] land 0x80 <> 0 then varint_end bytes (i + 1)
  else i + 1

(* [bytes] with the varint starting at [i] replaced by [max_int]'s *)
let set_varint_max bytes i =
  let j = varint_end bytes i in
  String.sub bytes 0 i ^ "\xfc\xff\xff\xff\xff\xff\xff\xff\x7f"
  ^ String.sub bytes j (String.length bytes - j)

let mutate bytes ~mutation ~at =
  let n = String.length bytes in
  match mutation with
  | 0 -> String.sub bytes 0 (at mod n)
  | 1 ->
    let b = Bytes.of_string bytes in
    let i = at / 8 mod n in
    Bytes.set b i (Char.chr (Char.code bytes.[i] lxor (1 lsl (at mod 8))));
    Bytes.to_string b
  | _ -> set_varint_max bytes (at mod n)

let prop_hostile_bytes =
  QCheck.Test.make ~name:"hostile artifact bytes fail or restore" ~count:3000
    QCheck.(quad (int_bound 17) bool (int_bound 2) (int_bound 1_000_000))
    (fun (which, in_state, mutation, at) ->
      let e, ctx = (Lazy.force hostile_entries).(which) in
      (if in_state then ignore (state_fails ctx ~tag:e.Codec.tag (mutate e.Codec.state ~mutation ~at))
       else
         let bytes = mutate (Codec.encode_entry e) ~mutation ~at in
         match Codec.decode_entry bytes ~len:(String.length bytes) with
         | e' -> ignore (state_fails ctx ~tag:e'.Codec.tag e'.Codec.state)
         | exception Failure _ -> ());
      true)

(* The offset in a state's bytes of its first sequence length, for the
   tags that have one at a fixed place in the layout. *)
let first_count ~tag state =
  match tag with
  | "synth" | "netlist" | "drc" -> Some 0
  | "place" -> Some (varint_end state 8) (* die width, rows, then xs *)
  | "route" ->
    (* nx, ny, tile width, capacity, then usage *)
    Some (varint_end state (varint_end state (varint_end state 0) + 8))
  | "timing" -> Some 32 (* four floats, then the critical path *)
  | _ -> None

(* Deterministic sweeps on top of the sampled property: every truncation
   of every entry and of every state is corruption, and a [max_int]
   length fails before anything is allocated for it. *)
let test_hostile_sweeps () =
  Array.iteri
    (fun which ((e : Codec.entry), ctx) ->
      let bytes = Codec.encode_entry e in
      let tag = e.Codec.tag in
      let state = e.Codec.state in
      for k = 0 to String.length bytes - 1 do
        if not (entry_fails (String.sub bytes 0 k)) then
          Alcotest.failf "entry %d (%s) truncated to %d bytes decoded" which tag k
      done;
      for k = 0 to String.length state - 1 do
        if not (state_fails ctx ~tag (String.sub state 0 k)) then
          Alcotest.failf "%s state %d truncated to %d bytes decoded" tag which k
      done;
      (* the key's length is the varint after the layout byte; the state's
         is the last one before the state bytes *)
      let state_len_at = String.length (Codec.encode_entry { e with Codec.state = "" }) - 1 in
      List.iter
        (fun (what, i) ->
          if not (entry_fails (set_varint_max bytes i)) then
            Alcotest.failf "entry %d (%s): a max_int %s length decoded" which tag what)
        [ ("key", 1); ("state", state_len_at) ];
      Option.iter
        (fun i ->
          if not (state_fails ctx ~tag (set_varint_max state i)) then
            Alcotest.failf "%s state %d: a max_int count decoded" tag which)
        (first_count ~tag state))
    (Lazy.force hostile_entries)

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_knob_splits_chain; prop_hostile_bytes ]
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
      ("artifact encoding pinned", `Quick, test_encoding_pinned);
      ("hostile bytes sweeps", `Quick, test_hostile_sweeps);
    ]
