module Flow = Educhip_flow.Flow
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs
module Netlist = Educhip_netlist.Netlist
module Sim = Educhip_sim.Sim

let check = Alcotest.check

let node = Pdk.find_node "edu130"

let test_open_flow_end_to_end () =
  let cfg = Flow.config ~node Flow.Open_flow in
  let r = Flow.run_design (Designs.find "alu8") cfg in
  check Alcotest.bool "drc clean" true r.Flow.ppa.Flow.drc_clean;
  check Alcotest.bool "timing met" true (r.Flow.ppa.Flow.wns_ps > 0.0);
  check Alcotest.bool "area positive" true (r.Flow.ppa.Flow.area_um2 > 0.0);
  check Alcotest.bool "power positive" true (r.Flow.ppa.Flow.total_power_uw > 0.0);
  check Alcotest.int "all steps ran" (List.length Flow.step_names) (List.length r.Flow.steps)

let test_flow_preserves_function () =
  let entry = Designs.find "adder8" in
  let original = Designs.netlist entry in
  let cfg = Flow.config ~node Flow.Open_flow in
  let r = Flow.run original cfg in
  let sim = Sim.create r.Flow.mapped in
  for i = 0 to 20 do
    let a = (i * 37) land 255 and b = (i * 91) land 255 in
    Sim.set_bus sim "a" a;
    Sim.set_bus sim "b" b;
    Sim.eval sim;
    check Alcotest.int "sum through full flow" (a + b) (Sim.read_bus sim "sum")
  done

let test_commercial_beats_open () =
  let entry = Designs.find "alu8" in
  let period = 5000.0 in
  let open_r =
    Flow.run_design entry (Flow.config ~node ~clock_period_ps:period Flow.Open_flow)
  in
  let comm_r =
    Flow.run_design entry (Flow.config ~node ~clock_period_ps:period Flow.Commercial_flow)
  in
  (* the E6 claim: commercial effort reaches at least the open flow's fmax *)
  check Alcotest.bool "commercial fmax >= open" true
    (comm_r.Flow.ppa.Flow.fmax_mhz >= open_r.Flow.ppa.Flow.fmax_mhz *. 0.98)

let test_teaching_flow_runs () =
  let cfg = Flow.config ~node Flow.Teaching_flow in
  let r = Flow.run_design (Designs.find "adder8") cfg in
  check Alcotest.bool "drc clean" true r.Flow.ppa.Flow.drc_clean;
  check Alcotest.bool "relaxed clock" true (cfg.Flow.clock_period_ps > 3000.0)

let test_step_names_stable () =
  check
    Alcotest.(list string)
    "template steps"
    [ "synthesis"; "sizing"; "buffering"; "placement"; "cts"; "routing"; "sta"; "power";
      "drc"; "gds" ]
    Flow.step_names

let test_sequential_design_through_flow () =
  let cfg = Flow.config ~node Flow.Open_flow in
  let r = Flow.run_design (Designs.find "fir4x8") cfg in
  check Alcotest.bool "has flip-flops" true (r.Flow.synth_report.Educhip_synth.Synth.flip_flops > 0);
  check Alcotest.bool "drc clean" true r.Flow.ppa.Flow.drc_clean;
  (* the FIR must still filter: constant input settles to a constant output *)
  let sim = Sim.create r.Flow.mapped in
  Sim.set_bus sim "x" 1;
  Sim.run_cycles sim 16;
  Sim.eval sim;
  let settled = Sim.read_bus sim "y" in
  (* coefficients 1,2,3,1 sum to 7 *)
  check Alcotest.int "dc gain" 7 settled

let test_summary_renders () =
  let cfg = Flow.config ~node Flow.Teaching_flow in
  let r = Flow.run_design (Designs.find "adder8") cfg in
  let s = Format.asprintf "%a" Flow.pp_summary r in
  check Alcotest.bool "mentions PPA" true
    (String.length s > 50
    &&
    let rec contains i =
      i + 4 <= String.length s && (String.sub s i 4 = "PPA:" || contains (i + 1))
    in
    contains 0)

let test_preset_names () =
  check Alcotest.string "open" "open" (Flow.preset_name Flow.Open_flow);
  check Alcotest.string "commercial" "commercial" (Flow.preset_name Flow.Commercial_flow);
  check Alcotest.string "teaching" "teaching" (Flow.preset_name Flow.Teaching_flow)

(* degenerate-input matrix: Flow.run must reject malformed netlists with
   a typed error before any step executes, and still handle legitimately
   tiny designs *)

let expect_run_rejects name netlist msg =
  let cfg = Flow.config ~node Flow.Open_flow in
  Alcotest.check_raises name (Invalid_argument msg) (fun () ->
      ignore (Flow.run netlist cfg))

let test_rejects_empty_netlist () =
  expect_run_rejects "empty"
    (Netlist.create ~name:"empty")
    "Flow.run: empty netlist (design \"empty\")"

let test_rejects_output_free_netlist () =
  let n = Netlist.create ~name:"inputs_only" in
  ignore (Netlist.add_input n ~label:"a");
  ignore (Netlist.add_input n ~label:"b");
  expect_run_rejects "no outputs" n
    "Flow.run: netlist has no outputs (design \"inputs_only\")"

let test_rejects_mapped_netlist () =
  let mapped, _ =
    Educhip_synth.Synth.synthesize
      (Designs.netlist (Designs.find "adder8"))
      ~node Educhip_synth.Synth.default_options
  in
  expect_run_rejects "already mapped" mapped
    "Flow.run: netlist is already technology-mapped (design \"adder8\")"

let test_single_cell_design_completes () =
  let d = Educhip_rtl.Rtl.create ~name:"inv1" in
  let a = Educhip_rtl.Rtl.input d "a" 1 in
  Educhip_rtl.Rtl.output d "y" (Educhip_rtl.Rtl.bnot d a);
  let cfg = Flow.config ~node Flow.Open_flow in
  let r = Flow.run (Educhip_rtl.Rtl.elaborate d) cfg in
  check Alcotest.string "verdict" "ok" (Flow.verdict_to_string r.Flow.verdict);
  check Alcotest.bool "drc clean" true r.Flow.ppa.Flow.drc_clean;
  check Alcotest.int "all steps ran" (List.length Flow.step_names)
    (List.length r.Flow.steps)

(* Exact PPA of three designs through the full flow on edu130, printed with
   %.17g. Sizing, STA and power must reproduce these bit for bit; a
   deliberate QoR change updates them. *)
let test_golden_ppa () =
  List.iter
    (fun (name, preset, (fmax, wns, power, area)) ->
      let r = Flow.run_design (Designs.find name) (Flow.config ~node preset) in
      let g label expected v =
        check Alcotest.string (name ^ " " ^ label) expected (Printf.sprintf "%.17g" v)
      in
      g "fmax_mhz" fmax r.Flow.ppa.Flow.fmax_mhz;
      g "wns_ps" wns r.Flow.ppa.Flow.wns_ps;
      g "total_power_uw" power r.Flow.ppa.Flow.total_power_uw;
      g "area_um2" area r.Flow.ppa.Flow.area_um2)
    [
      ( "alu8",
        Flow.Commercial_flow,
        ("885.52059776779834", "1145.7207912263375", "348.27930149058705", "1564.214969135802") );
      ( "fir4x8",
        Flow.Commercial_flow,
        ("532.79631445285668", "398.11014007871336", "726.70756270068819", "2581.8401234567782") );
      ( "xbar4x8",
        Flow.Teaching_flow,
        ("1351.6110825976923", "6085.1422014992086", "261.94047967160463", "1792.2345679012244") );
    ]

(* The last step's save marks the end of the run, so it comes after the
   [flow.run] span has closed, and the run allocates next to nothing
   after it: an allocation there could trigger a minor collection that
   no step's time covers. *)
let test_last_save_ends_run () =
  let module Obs = Educhip_obs.Obs in
  let cfg = Flow.config ~node Flow.Commercial_flow in
  let rtl = Designs.netlist (Designs.find "counter") in
  let col = Obs.create () in
  let saves = ref [] and words_at_last = ref 0.0 in
  let memo =
    {
      Flow.memo_probe = (fun _ -> None);
      memo_save =
        (fun step _ ->
          let run_closed =
            match Obs.root_spans col with
            | [ run ] -> not (Float.is_nan (Obs.span_stop_us run))
            | _ -> false
          in
          saves := (step, run_closed) :: !saves;
          words_at_last := Gc.minor_words ());
    }
  in
  let outcome = Obs.with_collector col (fun () -> Flow.run_guarded ~memo rtl cfg) in
  let after = Gc.minor_words () -. !words_at_last in
  (match outcome with
  | Flow.Completed _ -> ()
  | Flow.Aborted _ -> Alcotest.fail "counter aborted");
  check
    Alcotest.(list (pair string bool))
    "every step saved once, only gds after flow.run closed"
    (List.map (fun s -> (s, s = "gds")) Flow.step_names)
    (List.rev !saves);
  check Alcotest.bool
    (Printf.sprintf "%.0f words allocated after the last save" after)
    true (after <= 16.0)

let suite =
  [
    Alcotest.test_case "open flow end to end" `Slow test_open_flow_end_to_end;
    Alcotest.test_case "flow preserves function" `Slow test_flow_preserves_function;
    Alcotest.test_case "commercial beats open" `Slow test_commercial_beats_open;
    Alcotest.test_case "teaching flow runs" `Quick test_teaching_flow_runs;
    Alcotest.test_case "step names stable" `Quick test_step_names_stable;
    Alcotest.test_case "sequential design through flow" `Slow test_sequential_design_through_flow;
    Alcotest.test_case "summary renders" `Quick test_summary_renders;
    Alcotest.test_case "preset names" `Quick test_preset_names;
    Alcotest.test_case "rejects empty netlist" `Quick test_rejects_empty_netlist;
    Alcotest.test_case "rejects output-free netlist" `Quick
      test_rejects_output_free_netlist;
    Alcotest.test_case "rejects mapped netlist" `Quick test_rejects_mapped_netlist;
    Alcotest.test_case "single-cell design completes" `Quick
      test_single_cell_design_completes;
    Alcotest.test_case "golden ppa" `Slow test_golden_ppa;
    Alcotest.test_case "last save ends the run" `Quick test_last_save_ends_run;
  ]
