module Bmc = Educhip_bmc.Bmc
module Rtl = Educhip_rtl.Rtl
module Netlist = Educhip_netlist.Netlist
module Designs = Educhip_designs.Designs

let check = Alcotest.check

(* q <- q (a frozen zero register): "q stays 0" is inductive *)
let frozen_register () =
  let d = Rtl.create ~name:"frozen" in
  let q = Rtl.reg_feedback d ~width:1 (fun q -> q) in
  Rtl.output d "prop" (Rtl.bnot d q);
  Rtl.elaborate d

let test_inductive_property_proved () =
  match Bmc.check (frozen_register ()) ~property:"prop" ~depth:1 () with
  | Bmc.Proved 1 -> ()
  | v -> Alcotest.failf "expected proof, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* 3-bit counter: "never reaches 7" is false, first violated at cycle 8 *)
let counter_never_seven () =
  let d = Rtl.create ~name:"ctr7" in
  let c = Rtl.counter d ~width:3 () in
  Rtl.output d "prop" (Rtl.bnot d (Rtl.eq d c (Rtl.lit d ~width:3 7)))
  |> ignore;
  Rtl.elaborate d

let test_violation_found_with_trace () =
  let nl = counter_never_seven () in
  match Bmc.check nl ~property:"prop" ~depth:12 () with
  | Bmc.Violated trace ->
    (* the counter shows 7 during the 8th cycle *)
    check Alcotest.int "violated at cycle 8" 8 trace.Bmc.length;
    check Alcotest.bool "trace replays" true (Bmc.replay nl ~property:"prop" trace)
  | v -> Alcotest.failf "expected violation, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

let test_bounded_when_depth_too_small () =
  let nl = counter_never_seven () in
  match Bmc.check nl ~property:"prop" ~depth:5 () with
  | Bmc.Holds_bounded 5 -> ()
  | v -> Alcotest.failf "expected bounded, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* gray counter monitor: consecutive values differ in exactly one bit
   (skipped on the first cycle via a started flag) *)
let gray_onehot_monitor () =
  let d = Rtl.create ~name:"gray_mon" in
  let binary = Rtl.reg_feedback d ~width:4 (fun q -> Rtl.add d q (Rtl.lit d ~width:4 1)) in
  let gray = Rtl.bxor d binary (Rtl.shift_right d binary 1) in
  let prev = Rtl.reg d gray in
  let started = Rtl.reg_feedback d ~width:1 (fun _ -> Rtl.lit d ~width:1 1) in
  let diff = Rtl.bxor d gray prev in
  (* one-hot: diff != 0 and diff & (diff-1) == 0 *)
  let nonzero = Rtl.or_reduce d diff in
  let minus1 = Rtl.sub d diff (Rtl.lit d ~width:4 1) in
  let pow2 = Rtl.bnot d (Rtl.or_reduce d (Rtl.band d diff minus1)) in
  let onehot = Rtl.band d nonzero pow2 in
  Rtl.output d "prop" (Rtl.bor d (Rtl.bnot d started) onehot);
  Rtl.elaborate d

let test_gray_monitor_holds () =
  (* full period of the 4-bit counter plus slack *)
  match Bmc.check (gray_onehot_monitor ()) ~property:"prop" ~depth:20 ~induction:false () with
  | Bmc.Holds_bounded 20 -> ()
  | v -> Alcotest.failf "expected bounded hold, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* a bad monitor: claim the gray code always changes bit 0 — falsifiable *)
let bad_monitor () =
  let d = Rtl.create ~name:"bad_mon" in
  let binary = Rtl.reg_feedback d ~width:4 (fun q -> Rtl.add d q (Rtl.lit d ~width:4 1)) in
  let gray = Rtl.bxor d binary (Rtl.shift_right d binary 1) in
  let prev = Rtl.reg d gray in
  let started = Rtl.reg_feedback d ~width:1 (fun _ -> Rtl.lit d ~width:1 1) in
  let changed0 = Rtl.bxor d (Rtl.bit gray 0) (Rtl.bit prev 0) in
  Rtl.output d "prop" (Rtl.bor d (Rtl.bnot d started) changed0);
  Rtl.elaborate d

let test_bad_monitor_caught () =
  let nl = bad_monitor () in
  match Bmc.check nl ~property:"prop" ~depth:8 () with
  | Bmc.Violated trace ->
    check Alcotest.bool "replays" true (Bmc.replay nl ~property:"prop" trace)
  | v -> Alcotest.failf "expected violation, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* input-dependent: "output equals input delayed by one" on a pipeline with
   an adversarial environment: y = reg a; property y_t = a_{t-1} cannot be
   stated without a monitor, so check the monitor formulation *)
let pipeline_monitor () =
  let d = Rtl.create ~name:"pipe_mon" in
  let a = Rtl.input d "a" 1 in
  let y = Rtl.reg d a in
  let prev_a = Rtl.reg d a in
  Rtl.output d "prop" (Rtl.bnot d (Rtl.bxor d y prev_a));
  Rtl.elaborate d

let test_pipeline_monitor () =
  match Bmc.check (pipeline_monitor ()) ~property:"prop" ~depth:6 () with
  | Bmc.Proved _ -> ()
  | v -> Alcotest.failf "expected proof, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* a sticky flag set on the first cycle: "never set" is violated at
   exactly cycle 2 (the flag registers the 1 on the first edge) *)
let sticky_flag () =
  let d = Rtl.create ~name:"sticky" in
  let q = Rtl.reg_feedback d ~width:1 (fun q -> Rtl.bor d q (Rtl.lit d ~width:1 1)) in
  Rtl.output d "prop" (Rtl.bnot d q);
  Rtl.elaborate d

let test_sticky_flag_violation_timing () =
  let nl = sticky_flag () in
  match Bmc.check nl ~property:"prop" ~depth:4 () with
  | Bmc.Violated trace ->
    check Alcotest.int "violated at cycle 2" 2 trace.Bmc.length;
    check Alcotest.bool "replays" true (Bmc.replay nl ~property:"prop" trace)
  | v -> Alcotest.failf "expected violation, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* the sticky flag's counterexample cut to its first cycle: the flag is
   still clear there, so the property holds and the replay must say so *)
let test_truncated_trace_does_not_replay () =
  let nl = sticky_flag () in
  match Bmc.check nl ~property:"prop" ~depth:4 () with
  | Bmc.Violated trace ->
    let first = { Bmc.length = 1; steps = Array.sub trace.Bmc.steps 0 1 } in
    check Alcotest.bool "full trace replays" true (Bmc.replay nl ~property:"prop" trace);
    check Alcotest.bool "first cycle does not" false (Bmc.replay nl ~property:"prop" first)
  | v -> Alcotest.failf "expected violation, got %s" (Format.asprintf "%a" Bmc.pp_verdict v)

(* an accumulator fed by a free 3-bit input: "never 6" is violated, and
   many input sequences reach 6, so the trace the solver picks depends
   on its search order *)
let accumulator_never_six () =
  let d = Rtl.create ~name:"acc6" in
  let a = Rtl.input d "a" 3 in
  let acc = Rtl.reg_feedback d ~width:3 (fun q -> Rtl.add d q a) in
  Rtl.output d "prop" (Rtl.bnot d (Rtl.eq d acc (Rtl.lit d ~width:3 6)));
  Rtl.elaborate d

(* Every verdict in this file plus the accumulator's, counterexample
   traces in full, recorded before BMC and ATPG moved onto one
   gate-to-CNF encoder: the solver's search follows clause order, so a
   reordered encoding shows up here. *)
let test_golden_verdicts () =
  let show (label, nl, depth, induction) =
    let v = Bmc.check nl ~property:"prop" ~depth ~induction () in
    let steps =
      match v with
      | Bmc.Violated t ->
        Array.to_list t.Bmc.steps
        |> List.map (fun step ->
               String.concat ","
                 (List.map (fun (k, b) -> Printf.sprintf "%s=%d" k (Bool.to_int b)) step))
      | _ -> []
    in
    Printf.sprintf "%s: %s [%s]" label
      (Format.asprintf "%a" Bmc.pp_verdict v)
      (String.concat ";" steps)
  in
  let got =
    List.map show
      [
        ("frozen@1", frozen_register (), 1, true);
        ("ctr7@12", counter_never_seven (), 12, true);
        ("ctr7@5", counter_never_seven (), 5, true);
        ("gray_mon@20", gray_onehot_monitor (), 20, false);
        ("bad_mon@8", bad_monitor (), 8, true);
        ("pipe_mon@6", pipeline_monitor (), 6, true);
        ("sticky@4", sticky_flag (), 4, true);
        ("acc6@4", accumulator_never_six (), 4, true);
      ]
  in
  check Alcotest.(list string) "verdicts and traces"
    [
      "frozen@1: proved by 1-induction []";
      "ctr7@12: VIOLATED after 8 cycles [;;;;;;;]";
      "ctr7@5: holds within 5 cycles (no proof) []";
      "gray_mon@20: holds within 20 cycles (no proof) []";
      "bad_mon@8: VIOLATED after 3 cycles [;;]";
      "pipe_mon@6: proved by 6-induction []";
      "sticky@4: VIOLATED after 2 cycles [;]";
      "acc6@4: VIOLATED after 4 cycles \
       [a[0]=0,a[1]=0,a[2]=0;a[0]=0,a[1]=0,a[2]=0;a[0]=0,a[1]=1,a[2]=1;a[0]=0,a[1]=0,a[2]=0]";
    ]
    got

let test_bad_args () =
  let nl = frozen_register () in
  Alcotest.check_raises "unknown property"
    (Invalid_argument "Bmc.check: no one-bit output named nope") (fun () ->
      ignore (Bmc.check nl ~property:"nope" ~depth:3 ()));
  Alcotest.check_raises "bad depth" (Invalid_argument "Bmc.check: depth must be >= 1")
    (fun () -> ignore (Bmc.check nl ~property:"prop" ~depth:0 ()))

let suite =
  [
    Alcotest.test_case "inductive property proved" `Quick test_inductive_property_proved;
    Alcotest.test_case "violation found with trace" `Quick test_violation_found_with_trace;
    Alcotest.test_case "bounded when depth too small" `Quick test_bounded_when_depth_too_small;
    Alcotest.test_case "gray monitor holds" `Quick test_gray_monitor_holds;
    Alcotest.test_case "bad monitor caught" `Quick test_bad_monitor_caught;
    Alcotest.test_case "pipeline monitor proved" `Quick test_pipeline_monitor;
    Alcotest.test_case "sticky flag violation timing" `Quick test_sticky_flag_violation_timing;
    Alcotest.test_case "truncated trace does not replay" `Quick
      test_truncated_trace_does_not_replay;
    Alcotest.test_case "golden verdicts" `Quick test_golden_verdicts;
    Alcotest.test_case "bad args" `Quick test_bad_args;
  ]
