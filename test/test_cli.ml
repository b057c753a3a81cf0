(* The eduflow binary as a shell pipeline sees it. *)

module Runlog = Educhip_obs.Runlog
module Files = Educhip_util.Files

(* next to the test binary's directory, so the suite runs from any cwd *)
let eduflow =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "eduflow.exe" ]

(* Run [eduflow args] with stdin from /dev/null and stdout on [out]
   (closed here once the child has it); the exit status and whatever
   reached stderr *)
let run_eduflow ~out args =
  let err = Filename.temp_file "educhip-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let pid = Unix.create_process eduflow (Array.of_list (eduflow :: args)) null out err_fd in
      List.iter Unix.close [ out; err_fd; null ];
      let status = snd (Unix.waitpid [] pid) in
      (status, In_channel.with_open_bin err In_channel.input_all))

(* stdout a pipe whose reader is already gone, as in [eduflow ... | head -1]
   once head has its line *)
let run_closed_stdout args =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.close r;
  run_eduflow ~out:w args

let with_temp_dir f =
  let dir = Filename.temp_dir "educhip-cli" "" in
  Fun.protect ~finally:(fun () -> Files.rm_rf dir) (fun () -> f dir)

(* a closed stdout ends a clean run quietly: exit 0, not an uncaught
   Broken-pipe exception from a stdout flush *)
let test_closed_stdout () =
  let status, err = run_closed_stdout [ "run"; "counter"; "--clock"; "900" ] in
  Alcotest.(check string) "nothing on stderr" "" err;
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0)

(* ... but the command still finishes: its files are written and its own
   exit code survives. cmp16 on the teaching preset has DRC violations. *)
let test_closed_stdout_keeps_drc_exit () =
  with_temp_dir (fun dir ->
      let gds = Filename.concat dir "cmp16.gds" in
      let status, err =
        run_closed_stdout [ "run"; "cmp16"; "--preset"; "teaching"; "--gds"; gds ]
      in
      Alcotest.(check string) "nothing on stderr" "" err;
      Alcotest.(check bool) "GDSII still written" true (Sys.file_exists gds);
      Alcotest.(check bool) "exit 2 (DRC violations)" true (status = Unix.WEXITED 2))

(* [eduflow compare ... | head -1] under pipefail must still fail the gate *)
let test_closed_stdout_keeps_regression_exit () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "ledger.jsonl" in
      let baseline =
        Runlog.make ~design:"counter" ~node:"edu130" ~preset:"open" ~verdict:"ok"
          ~total_wall_ms:100.0 ()
      in
      Runlog.append ~path baseline;
      Runlog.append ~path { baseline with Runlog.total_wall_ms = 1500.0 };
      let status, err = run_closed_stdout [ "compare"; "--ledger"; path ] in
      Alcotest.(check string) "nothing on stderr" "" err;
      Alcotest.(check bool) "exit 1 (regressed)" true (status = Unix.WEXITED 1))

(* every doc string renders: cmdliner reports a markup error in one on
   stderr, e.g. an escaped "\\@" in the --inject doc *)
let test_help_renders_cleanly () =
  List.iter
    (fun args ->
      let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let status, err = run_eduflow ~out (args @ [ "--help=plain" ]) in
      let what = String.concat " " ("eduflow" :: args) in
      Alcotest.(check string) (what ^ " --help: nothing on stderr") "" err;
      Alcotest.(check bool) (what ^ " --help: exit 0") true (status = Unix.WEXITED 0))
    [ []; [ "run" ]; [ "submit" ]; [ "batch" ] ]

(* SIGINT drains a campaign rather than aborting it or being ignored:
   the in-flight job finishes, the rest come back cancelled, exit 130.
   The campaign runs for seconds, so a handler that only runs once every
   worker has exited shows up as a run to the end with nothing
   cancelled. *)
let test_batch_interrupt_drains () =
  with_temp_dir (fun dir ->
      let manifest = Filename.concat dir "campaign.txt" in
      Out_channel.with_open_bin manifest (fun oc ->
          output_string oc "alu8 preset=commercial repeat=64\n");
      let out = Filename.concat dir "out.txt" in
      let err = Filename.concat dir "err.txt" in
      let open_w path =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let out_fd = open_w out and err_fd = open_w err in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let args = [ eduflow; "batch"; manifest; "--jobs"; "1"; "--no-cache" ] in
      let pid = Unix.create_process eduflow (Array.of_list args) null out_fd err_fd in
      List.iter Unix.close [ out_fd; err_fd; null ];
      Unix.sleepf 0.3;
      Unix.kill pid Sys.sigint;
      let status = snd (Unix.waitpid [] pid) in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let contains ~needle s =
        let n = String.length needle in
        let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "exit 130" true (status = Unix.WEXITED 130);
      Alcotest.(check bool) "says it drains" true
        (contains ~needle:"interrupt: draining workers" (read err));
      Alcotest.(check bool) "undispatched jobs cancelled" true
        (contains ~needle:"cancelled before execution" (read out)))

let suite =
  [
    Alcotest.test_case "eduflow with a closed stdout" `Quick test_closed_stdout;
    Alcotest.test_case "closed stdout keeps the DRC exit and the GDS file" `Quick
      test_closed_stdout_keeps_drc_exit;
    Alcotest.test_case "closed stdout keeps the compare regression exit" `Quick
      test_closed_stdout_keeps_regression_exit;
    Alcotest.test_case "--help leaves stderr empty" `Quick test_help_renders_cleanly;
    Alcotest.test_case "batch SIGINT drains and exits 130" `Quick test_batch_interrupt_drains;
  ]
