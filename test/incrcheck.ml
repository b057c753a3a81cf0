(* @incrcheck smoke: the per-step incremental artifact store end to end.

   1. A cold run populates one artifact per template step; a config
      delta (clock edit) must resume at exactly the first affected step
      (sta), replaying the physical prefix and recomputing only the
      suffix — bit-identical to a cold run of the edited config.
   2. A structurally identical design under a different display name
      (a second tenant's copy) must replay the whole chain from the
      first tenant's artifacts without storing anything new.
   3. A corrupted artifact must be quarantined and recomputed, with the
      run still bit-identical.
   4. A cold run plus a warm resume into a fresh store must list the
      artifact directory once, at the store's first put: every later
      put counts its entry instead of re-listing.
   5. [eduflow run --artifact-dir] run twice on one directory must
      announce a full replay the second time.

   The [gds] step is not stored (its layout is rebuilt from the routing
   state), so "every step" here means [Flow.stored_step_names]. *)

module Flow = Educhip_flow.Flow
module Netlist = Educhip_netlist.Netlist
module Designs = Educhip_designs.Designs
module Obs = Educhip_obs.Obs
module Artifact = Educhip_artifact.Artifact
module Astore = Educhip_artifact.Store
module Stepkey = Educhip_artifact.Stepkey
module Gds = Educhip_gds.Gds
module Files = Educhip_util.Files

let failures = ref 0

let expect what ok =
  Printf.printf "incrcheck  %-44s %s\n" what (if ok then "ok" else "FAIL");
  if not ok then incr failures

let expect_int what expected got =
  Printf.printf "incrcheck  %-44s %s (%d)\n" what
    (if got = expected then "ok" else Printf.sprintf "FAIL: got %d, want %d" got expected)
    got;
  if got <> expected then incr failures

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let run_cli prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> failwith ("incrcheck: eduflow failed:\n" ^ out)

let () =
  let eduflow = if Array.length Sys.argv > 1 then Sys.argv.(1) else "eduflow" in
  let node = Educhip_pdk.Pdk.find_node "edu130" in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "educhip-incrcheck" in
  Files.rm_rf dir;
  let store = Astore.create ~dir () in
  let netlist = Designs.netlist (Designs.find "counter") in
  let base = Flow.config ~node Flow.Open_flow in
  let memo_for ?(store = store) ?(n = netlist) cfg =
    Artifact.memo ~store ~netlist:n ~cfg ~inject:[] ~fault_seed:1 ~retries:2
  in
  let prefix ?(n = netlist) cfg =
    Artifact.warm_prefix ~store ~netlist:n ~cfg ~inject:[] ~fault_seed:1 ~retries:2
  in
  let run ?memo ?(n = netlist) cfg =
    match Flow.run_guarded ?memo n cfg with
    | Flow.Completed r -> r
    | Flow.Aborted a -> failwith ("incrcheck: flow aborted at " ^ a.Flow.failed_step)
  in
  let counted f =
    let c = Obs.create () in
    let r = Obs.with_collector c f in
    (r, fun name -> Obs.counter_value c name)
  in
  let n_steps = List.length Flow.stored_step_names in

  (* 1: cold populate, then a config delta resuming at sta *)
  let cold, ctr = counted (fun () -> run ~memo:(memo_for base) base) in
  expect_int "cold run stores one artifact per step" n_steps (ctr "artifact.stores");
  expect_int "cold run probes exactly one miss" 1 (ctr "artifact.misses");
  let edited = { base with Flow.clock_period_ps = base.Flow.clock_period_ps *. 1.25 } in
  expect_int "clock delta resumes at sta" 6 (prefix edited);
  let cold_edited = run edited in
  let warm_edited, ctr = counted (fun () -> run ~memo:(memo_for edited) edited) in
  expect_int "warm resume replays the physical prefix" 6 (ctr "artifact.hits");
  expect_int "warm resume stores only the suffix" (n_steps - 6) (ctr "artifact.stores");
  expect "warm resume bit-identical to cold rerun"
    (cold_edited.Flow.ppa = warm_edited.Flow.ppa
    && cold_edited.Flow.verdict = warm_edited.Flow.verdict
    && cold_edited.Flow.execs = warm_edited.Flow.execs
    && List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) cold_edited.Flow.steps
       = List.map (fun s -> (s.Flow.step_name, s.Flow.detail)) warm_edited.Flow.steps);

  (* 2: a second tenant's structurally identical design dedupes *)
  let tenant_b =
    Netlist.restore ~name:"tenant-b-counter"
      (Array.init (Netlist.cell_count netlist) (Netlist.cell netlist))
  in
  expect_int "identical structure replays the whole chain" n_steps
    (prefix ~n:tenant_b base);
  let dedup, ctr =
    counted (fun () -> run ~memo:(memo_for ~n:tenant_b base) ~n:tenant_b base)
  in
  expect_int "dedup run is all hits" n_steps (ctr "artifact.hits");
  expect_int "dedup run stores nothing" 0 (ctr "artifact.stores");
  expect "dedup run matches the original tenant's QoR"
    (cold.Flow.ppa = dedup.Flow.ppa && cold.Flow.execs = dedup.Flow.execs);
  let gds_detail (r : Flow.result) =
    (List.find (fun s -> s.Flow.step_name = "gds") r.Flow.steps).Flow.detail
  in
  (* the stream carries the design name, so compare against a cold run
     of the second tenant's own copy *)
  let cold_b = run ~n:tenant_b base in
  expect "dedup run rebuilds a bit-identical layout"
    (Bytes.equal (Gds.to_gds_bytes cold_b.Flow.layout) (Gds.to_gds_bytes dedup.Flow.layout)
    && gds_detail cold_b = gds_detail dedup);
  expect "dedup run keeps its own display name"
    (Netlist.name dedup.Flow.mapped = "tenant-b-counter"
    && dedup.Flow.layout.Gds.design_name = "tenant-b-counter");

  (* 3: a corrupted artifact is quarantined and recomputed *)
  let victim =
    (* the base chain's placement artifact: mid-chain, so the rerun
       replays synthesis..buffering, recomputes from placement on *)
    let chain =
      Stepkey.chain ~netlist ~cfg:base ~inject:[] ~fault_seed:1 ~retries:2
    in
    Filename.concat dir (List.assoc "placement" chain ^ ".json")
  in
  if not (Sys.file_exists victim) then failwith "incrcheck: placement artifact missing";
  let ic = open_in_bin victim in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin victim in
  output_string oc (String.sub body 0 (String.length body / 2));
  close_out oc;
  let recovered, ctr = counted (fun () -> run ~memo:(memo_for base) base) in
  expect "corrupt artifact is quarantined" (ctr "artifact.quarantined" >= 1);
  expect "quarantine keeps the evidence"
    (Sys.file_exists (Filename.concat dir "quarantine")
    && Array.length (Sys.readdir (Filename.concat dir "quarantine")) >= 1);
  expect "recomputed run bit-identical"
    (cold.Flow.ppa = recovered.Flow.ppa && cold.Flow.execs = recovered.Flow.execs);

  Files.rm_rf dir;

  (* 4: the entry count replaces per-put directory listings *)
  let fresh = Astore.create ~dir () in
  let (), ctr =
    counted (fun () ->
        ignore (run ~memo:(memo_for ~store:fresh base) base);
        ignore (run ~memo:(memo_for ~store:fresh edited) edited))
  in
  expect_int "cold + warm resume store every entry" (2 * n_steps - 6) (ctr "artifact.stores");
  expect_int "cold + warm resume list the store once" 1 (ctr "artifact.listings");
  Files.rm_rf dir;

  (* 5: the CLI's resume announcement counts the stored steps only *)
  let cli_dir = Filename.concat (Filename.get_temp_dir_name ()) "educhip-incrcheck-cli" in
  Files.rm_rf cli_dir;
  let cli () = run_cli eduflow [ "counter"; "--artifact-dir"; cli_dir ] in
  expect "first CLI run on a fresh dir is cold" (contains "artifacts: cold" (cli ()));
  expect "second CLI run is a full replay" (contains "artifacts: full replay" (cli ()));
  Files.rm_rf cli_dir;

  if !failures > 0 then begin
    Printf.printf "incrcheck: %d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline
    "incrcheck: config-delta resume, cross-tenant dedup, quarantine recovery, one listing, CLI \
     replay all hold"
