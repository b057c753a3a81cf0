(* @schedcheck smoke: a 6-job multi-tenant campaign run three ways —
   cold serial, cold 2-worker, then warm 2-worker on the second run's
   cache. Serial and parallel cold runs must produce identical verdicts
   and PPA per job (scheduler determinism), and the warm run must hit
   the cache on every job (hit rate 1.0) with the same results again. *)

module Manifest = Educhip_sched.Manifest
module Cache = Educhip_sched.Cache
module Sched = Educhip_sched.Sched
module Flow = Educhip_flow.Flow
module Files = Educhip_util.Files

let manifest_text =
  {|
tenant uni-a weight=2
tenant uni-b weight=1
gray8   tenant=uni-a preset=open
counter tenant=uni-a preset=teaching priority=2
adder8  tenant=uni-a preset=commercial
mult4   tenant=uni-b preset=open
cmp16   tenant=uni-b preset=commercial
lfsr16  tenant=uni-b inject=flow.routing:crash@1 retries=2
|}

let signature results =
  List.map
    (fun (r : Sched.job_result) ->
      let ppa = match r.ppa with Some p -> Flow.ppa_signature p | None -> "-" in
      Printf.sprintf "#%d %s %s [%s]" r.job.Manifest.index r.job.Manifest.design
        r.verdict ppa)
    results

let () =
  let manifest = Manifest.parse_string ~source:"schedcheck" manifest_text in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "schedcheck  %-34s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in

  let dir_serial = "schedcheck-cache-serial" in
  let dir_par = "schedcheck-cache-parallel" in
  Files.rm_rf dir_serial;
  Files.rm_rf dir_par;

  let serial, s_serial =
    Sched.run ~workers:1 ~cache:(Cache.create ~dir:dir_serial ()) manifest
  in
  let parallel, _ =
    Sched.run ~workers:2 ~cache:(Cache.create ~dir:dir_par ()) manifest
  in
  let warm, s_warm =
    Sched.run ~workers:2 ~cache:(Cache.create ~dir:dir_par ()) manifest
  in

  check "cold serial: all jobs completed" (s_serial.Sched.completed = 6);
  check "cold serial: no cache hits" (s_serial.Sched.cache_hits = 0);
  check "serial = 2-worker verdicts+PPA" (signature serial = signature parallel);
  check "warm = cold results" (signature warm = signature parallel);
  check "warm run: hit rate 1.0"
    (s_warm.Sched.cache_hits = 6 && s_warm.Sched.cache_misses = 0);
  check "warm run: all from cache"
    (List.for_all (fun (r : Sched.job_result) -> r.from_cache) warm);

  List.iter print_endline (signature serial);
  Files.rm_rf dir_serial;
  Files.rm_rf dir_par;
  if !failures > 0 then begin
    Printf.printf "schedcheck: %d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "schedcheck: campaign deterministic across workers, warm cache hits 100%"
