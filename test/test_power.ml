module Power = Educhip_power.Power
module Synth = Educhip_synth.Synth
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs

let check = Alcotest.check

let node = Pdk.find_node "edu130"

let mapped name =
  let nl = Designs.netlist (Designs.find name) in
  fst (Synth.synthesize nl ~node Synth.default_options)

let test_components_positive () =
  let m = mapped "alu8" in
  let r = Power.estimate m ~node ~clock_mhz:100.0 () in
  check Alcotest.bool "dynamic > 0" true (r.Power.dynamic_uw > 0.0);
  check Alcotest.bool "leakage > 0" true (r.Power.leakage_uw > 0.0);
  check (Alcotest.float 1e-9) "total is the sum"
    (r.Power.dynamic_uw +. r.Power.leakage_uw +. r.Power.clock_uw)
    r.Power.total_uw

let test_scales_with_frequency () =
  let m = mapped "alu8" in
  let slow = Power.estimate m ~node ~clock_mhz:50.0 () in
  let fast = Power.estimate m ~node ~clock_mhz:200.0 () in
  check Alcotest.bool "dynamic scales ~4x" true
    (fast.Power.dynamic_uw > 3.5 *. slow.Power.dynamic_uw
    && fast.Power.dynamic_uw < 4.5 *. slow.Power.dynamic_uw);
  check (Alcotest.float 1e-9) "leakage unaffected" slow.Power.leakage_uw fast.Power.leakage_uw

let test_clock_power_needs_dffs () =
  let comb = mapped "adder8" in
  let seq = mapped "gray8" in
  let rc = Power.estimate comb ~node ~clock_mhz:100.0 () in
  let rs = Power.estimate seq ~node ~clock_mhz:100.0 () in
  check (Alcotest.float 1e-9) "no clock power without dffs" 0.0 rc.Power.clock_uw;
  check Alcotest.bool "clock power with dffs" true (rs.Power.clock_uw > 0.0)

let test_activity_reasonable () =
  let m = mapped "alu8" in
  let r = Power.estimate m ~node ~clock_mhz:100.0 ~cycles:500 () in
  check Alcotest.bool "activity in (0,1)" true
    (r.Power.mean_activity > 0.0 && r.Power.mean_activity < 1.0);
  check Alcotest.int "cycles recorded" 500 r.Power.cycles_simulated

let test_determinism () =
  let m = mapped "alu8" in
  let a = Power.estimate m ~node ~clock_mhz:100.0 ~seed:7 () in
  let b = Power.estimate m ~node ~clock_mhz:100.0 ~seed:7 () in
  check (Alcotest.float 1e-12) "same seed same power" a.Power.total_uw b.Power.total_uw

let test_leakage_worse_at_advanced_nodes () =
  let nl = Designs.netlist (Designs.find "alu8") in
  let n130 = Pdk.find_node "edu130" and n7 = Pdk.find_node "edu7" in
  let m130, _ = Synth.synthesize nl ~node:n130 Synth.default_options in
  let m7, _ = Synth.synthesize nl ~node:n7 Synth.default_options in
  let r130 = Power.estimate m130 ~node:n130 ~clock_mhz:100.0 () in
  let r7 = Power.estimate m7 ~node:n7 ~clock_mhz:100.0 () in
  check Alcotest.bool "leakage grows as nodes shrink" true
    (r7.Power.leakage_uw > r130.Power.leakage_uw)

let test_bad_args () =
  let m = mapped "adder8" in
  Alcotest.check_raises "bad clock" (Invalid_argument "Power.estimate: clock must be positive")
    (fun () -> ignore (Power.estimate m ~node ~clock_mhz:0.0 ()));
  Alcotest.check_raises "bad cycles"
    (Invalid_argument "Power.estimate: cycles must be positive") (fun () ->
      ignore (Power.estimate m ~node ~clock_mhz:10.0 ~cycles:0 ()))

let test_clock_gating_detects_enables () =
  (* a register bank with enables: every flop recirculates through a mux *)
  let module Rtl = Educhip_rtl.Rtl in
  let d = Rtl.create ~name:"gated" in
  let a = Rtl.input d "a" 8 in
  let en = Rtl.input d "en" 1 in
  Rtl.output d "q" (Rtl.reg d ~enable:en a);
  let nl = Rtl.elaborate d in
  let r = Power.clock_gating nl ~node ~clock_mhz:100.0 () in
  check Alcotest.int "8 flops" 8 r.Power.total_flops;
  check Alcotest.int "all gateable" 8 r.Power.gateable_flops;
  check Alcotest.bool "savings positive" true (r.Power.clock_power_saving_uw > 0.0);
  (* free-running registers are not gateable *)
  let d2 = Rtl.create ~name:"free" in
  let b = Rtl.input d2 "b" 4 in
  Rtl.output d2 "q" (Rtl.reg d2 b);
  let r2 = Power.clock_gating (Rtl.elaborate d2) ~node ~clock_mhz:100.0 () in
  check Alcotest.int "none gateable" 0 r2.Power.gateable_flops

let test_clock_gating_on_mapped () =
  (* the enable structure survives synthesis as MUX2 cells or re-expressed
     logic; at minimum the analysis runs and savings scale with duty *)
  let module Rtl = Educhip_rtl.Rtl in
  let d = Rtl.create ~name:"gated_m" in
  let a = Rtl.input d "a" 8 in
  let en = Rtl.input d "en" 1 in
  Rtl.output d "q" (Rtl.reg d ~enable:en a);
  let nl = Rtl.elaborate d in
  let r_low = Power.clock_gating nl ~node ~clock_mhz:100.0 ~enable_duty:0.1 () in
  let r_high = Power.clock_gating nl ~node ~clock_mhz:100.0 ~enable_duty:0.9 () in
  check Alcotest.bool "idle registers save more" true
    (r_low.Power.clock_power_saving_uw > r_high.Power.clock_power_saving_uw)

let test_clock_gating_bad_args () =
  let m = mapped "gray8" in
  Alcotest.check_raises "duty range"
    (Invalid_argument "Power.clock_gating: enable_duty must be in [0,1]") (fun () ->
      ignore (Power.clock_gating m ~node ~clock_mhz:100.0 ~enable_duty:1.5 ()))

(* Every report field at %h on the mapped netlists the flow presets produce,
   recorded before the simulator moved to compiled word evaluation. A
   synthetic per-net wire length gives every net its own weight, so a
   changed toggle count on any net moves [dynamic_uw]; fir4x8, acc_cpu8
   and uart_tx are sequential. *)
let test_golden_reports () =
  let module Flow = Educhip_flow.Flow in
  List.iter
    (fun (name, preset, expected) ->
      let cfg = Flow.config ~node preset in
      let nl = Designs.netlist (Designs.find name) in
      let m, _ = Synth.synthesize nl ~node cfg.Flow.synth_options in
      let r =
        Power.estimate m ~node ~clock_mhz:(1e6 /. cfg.Flow.clock_period_ps)
          ~wire_length_of_net:(fun id -> float_of_int (id mod 13))
          ~cycles:cfg.Flow.power_cycles ()
      in
      check Alcotest.string name expected
        (Printf.sprintf "%h %h %h %h %h %d" r.Power.dynamic_uw r.Power.leakage_uw
           r.Power.clock_uw r.Power.total_uw r.Power.mean_activity r.Power.cycles_simulated))
    [
      ( "adder8",
        Flow.Commercial_flow,
        "0x1.1117540f7dd7bp+6 0x1.b6f71554a9427p-4 0x0p+0 0x1.118511d4d302p+6 0x1.f280772807728p-2 400" );
      ( "alu8",
        Flow.Commercial_flow,
        "0x1.c45fc503249cfp+7 0x1.a66059bbe1604p-2 0x0p+0 0x1.c532f530028dap+7 0x1.dceb05dd99ff6p-2 400" );
      ( "fir4x8",
        Flow.Commercial_flow,
        "0x1.055ee0ee2560ap+8 0x1.77297ee1a87a5p-1 0x1.490809fbe21dp+7 0x1.aa9e7aab87436p+8 0x1.c1dad3ad9dc65p-2 400" );
      ( "acc_cpu8",
        Flow.Commercial_flow,
        "0x1.9fc2814c414eep+7 0x1.d00fa0b88251bp-2 0x1.b6b562a52d7c1p+4 0x1.d7813571433f9p+7 0x1.ab4b025eef33dp-2 400" );
      ( "uart_tx",
        Flow.Commercial_flow,
        "0x1.99f85ca719009p+5 0x1.3461ac812e796p-2 0x1.7fdeb65087cc9p+5 0x1.8e1feb285195p+6 0x1.341fb88d0cdbap-3 400" );
      ( "mult8",
        Flow.Teaching_flow,
        "0x1.ca24e6f74d44ep+6 0x1.a782b9b4d2994p-1 0x0p+0 0x1.cd73ec6ab6ea1p+6 0x1.6a2b89ca3efedp-2 100" );
    ]

let suite =
  [
    Alcotest.test_case "components positive" `Quick test_components_positive;
    Alcotest.test_case "scales with frequency" `Quick test_scales_with_frequency;
    Alcotest.test_case "clock power needs dffs" `Quick test_clock_power_needs_dffs;
    Alcotest.test_case "activity reasonable" `Quick test_activity_reasonable;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "leakage at advanced nodes" `Quick test_leakage_worse_at_advanced_nodes;
    Alcotest.test_case "bad args" `Quick test_bad_args;
    Alcotest.test_case "clock gating detects enables" `Quick test_clock_gating_detects_enables;
    Alcotest.test_case "clock gating duty scaling" `Quick test_clock_gating_on_mapped;
    Alcotest.test_case "clock gating bad args" `Quick test_clock_gating_bad_args;
    Alcotest.test_case "golden reports" `Quick test_golden_reports;
  ]
