(* @chaoscheck smoke: the durability contract under real SIGKILLs.

   Drives a real eduserved process (path = argv 1) through a small
   campaign with two kill/restart cycles, journal enabled, and requires
   the full contract: no acknowledged job lost, every survivor
   bit-identical to an undisturbed baseline, and every post-restart
   resubmission of an already-accepted key suppressed to the original
   job id. *)

module Wire = Educhip_serve.Wire
module Chaos = Educhip_serve.Chaos
module Files = Educhip_util.Files

let () =
  let daemon =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      prerr_endline "usage: chaoscheck <path-to-eduserved>";
      exit 2
    end
  in
  let jobs =
    List.map
      (fun (design, preset, tenant) -> { (Wire.submit ~tenant design) with Wire.preset })
      [
        ("counter", "open", "uni-a");
        ("gray8", "open", "course");
        ("lfsr16", "teaching", "uni-a");
        ("adder8", "open", "course");
        ("mult4", "open", "uni-a");
        ("popcount16", "teaching", "course");
      ]
  in
  let state_dir = Filename.concat (Filename.get_temp_dir_name ()) "educhip-chaoscheck" in
  Files.rm_rf state_dir;
  let stats =
    Fun.protect
      ~finally:(fun () -> Files.rm_rf state_dir)
      (fun () ->
        Chaos.run
          { Chaos.daemon; state_dir; workers = 2; jobs; kills = 2; seed = 3;
            use_journal = true })
  in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "chaoscheck  %-38s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  check
    (Printf.sprintf "no acknowledged job lost (%d jobs, %d kills)" stats.Chaos.jobs_total
       stats.Chaos.kills)
    stats.Chaos.zero_loss;
  check "recovered results bit-identical" stats.Chaos.bit_identical;
  check
    (Printf.sprintf "all %d duplicate probes suppressed" stats.Chaos.duplicate_probes)
    (stats.Chaos.duplicate_probes > 0
    && stats.Chaos.duplicates_suppressed = stats.Chaos.duplicate_probes);
  check "every kill recovered" (stats.Chaos.recoveries = stats.Chaos.kills);
  if !failures > 0 then begin
    Printf.printf "chaoscheck: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "chaoscheck: all checks passed"
