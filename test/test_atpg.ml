module Atpg = Educhip_dft.Atpg
module Dft = Educhip_dft.Dft
module Netlist = Educhip_netlist.Netlist
module Synth = Educhip_synth.Synth
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs

let check = Alcotest.check

let node = Pdk.find_node "edu130"

let test_fault_enumeration () =
  let nl = Netlist.create ~name:"tiny" in
  let a = Netlist.add_input nl ~label:"a" in
  let b = Netlist.add_input nl ~label:"b" in
  let g = Netlist.add_gate nl Netlist.And [| a; b |] in
  ignore (Netlist.add_output nl ~label:"y" g);
  (* faults on a, b, g — both polarities; the output marker carries none *)
  check Alcotest.int "six faults" 6 (List.length (Atpg.enumerate_faults nl))

let test_full_coverage_on_adder () =
  let nl = Designs.netlist (Designs.find "adder8") in
  let r = Atpg.run ~random_patterns:128 nl in
  check (Alcotest.float 1e-9) "full coverage" 1.0 r.Atpg.coverage;
  (* exactly one genuinely untestable fault: bit 0's carry AND gate has the
     constant-false carry-in, so its output is stuck at 0 by construction
     and stuck-0 there is undetectable — found by the UNSAT proof *)
  check Alcotest.int "one redundancy from the constant carry-in" 1 r.Atpg.untestable;
  check Alcotest.int "no aborts" 0 r.Atpg.aborted;
  check Alcotest.bool "random catches most" true
    (r.Atpg.detected_random > (r.Atpg.total_faults * 3) / 4)

let test_mapped_netlist_coverage () =
  let nl = Designs.netlist (Designs.find "alu8") in
  let mapped, _ = Synth.synthesize nl ~node Synth.default_options in
  let r = Atpg.run ~random_patterns:192 mapped in
  check Alcotest.bool "high coverage on mapped cells" true (r.Atpg.coverage >= 0.99)

let test_sequential_design () =
  (* registers act as scan cut points: full controllability assumed *)
  let nl = Designs.netlist (Designs.find "gray8") in
  let r = Atpg.run nl in
  check (Alcotest.float 1e-9) "sequential full coverage" 1.0 r.Atpg.coverage

let test_sat_rescues_random_misses () =
  (* a 16-bit equality comparator's "all equal" output needs a specific
     pattern pair that random vectors essentially never hit *)
  let nl = Designs.netlist (Designs.find "cmp16") in
  let r = Atpg.run ~random_patterns:64 nl in
  check Alcotest.bool "sat phase used" true (r.Atpg.detected_sat > 0);
  check (Alcotest.float 1e-9) "still full coverage" 1.0 r.Atpg.coverage

let test_untestable_redundant_logic () =
  (* y = (a & !a) & b: the inner contradiction makes b's faults and the
     stuck-0 on the dead gates undetectable *)
  let nl = Netlist.create ~name:"redundant" in
  let a = Netlist.add_input nl ~label:"a" in
  let b = Netlist.add_input nl ~label:"b" in
  let na = Netlist.add_gate nl Netlist.Not [| a |] in
  let dead = Netlist.add_gate nl Netlist.And [| a; na |] in
  let y = Netlist.add_gate nl Netlist.And [| dead; b |] in
  ignore (Netlist.add_output nl ~label:"y" y);
  let r = Atpg.run nl in
  check Alcotest.bool "untestable faults found" true (r.Atpg.untestable > 0);
  (* the coverage metric excludes proven-untestable faults *)
  check (Alcotest.float 1e-9) "testable faults all covered" 1.0 r.Atpg.coverage

let test_sat_patterns_actually_detect () =
  let nl = Designs.netlist (Designs.find "cmp16") in
  let r = Atpg.run ~random_patterns:64 nl in
  check Alcotest.bool "has directed patterns" true (r.Atpg.patterns <> []);
  let detects = Atpg.detects nl in
  List.iter
    (fun p ->
      List.iter
        (fun f -> check Alcotest.bool "pattern detects its fault" true (detects p f))
        p.Atpg.detects)
    r.Atpg.patterns

let test_mux_heavy_patterns_valid () =
  (* prio16 is a mux chain: regression for the Mux truth-table bug that
     once produced invalid directed patterns *)
  let nl = Designs.netlist (Designs.find "prio16") in
  let r = Atpg.run ~random_patterns:64 nl in
  check Alcotest.bool "sat patterns generated" true (r.Atpg.detected_sat > 0);
  let detects = Atpg.detects nl in
  List.iter
    (fun p ->
      List.iter
        (fun f -> check Alcotest.bool "mux pattern detects" true (detects p f))
        p.Atpg.detects)
    r.Atpg.patterns

let test_counts_consistent () =
  let nl = Designs.netlist (Designs.find "prio16") in
  let r = Atpg.run nl in
  check Alcotest.int "partition sums to total" r.Atpg.total_faults
    (r.Atpg.detected_random + r.Atpg.detected_sat + r.Atpg.untestable
    + (r.Atpg.total_faults - r.Atpg.detected_random - r.Atpg.detected_sat - r.Atpg.untestable));
  check Alcotest.bool "nothing left undecided" true
    (r.Atpg.detected_random + r.Atpg.detected_sat + r.Atpg.untestable = r.Atpg.total_faults)

let test_scan_uart_coverage () =
  (* the end-to-end DFT story: scan-inserted UART, mapped, ATPG. (The CPU
     works too but its ROM constants force hundreds of whole-circuit
     untestability proofs — minutes of SAT; see EXPERIMENTS.md.) *)
  let rtl = Educhip_rtl.Rtl.elaborate (Designs.uart_tx ()) in
  let scanned, _ = Dft.insert_scan rtl in
  let mapped, _ = Synth.synthesize scanned ~node Synth.default_options in
  let r = Atpg.run ~random_patterns:192 mapped in
  check Alcotest.bool
    (Printf.sprintf "uart coverage %.3f >= 0.98" r.Atpg.coverage)
    true (r.Atpg.coverage >= 0.98);
  check Alcotest.int "no aborts at this size" 0 r.Atpg.aborted

let test_report_rendering () =
  let nl = Designs.netlist (Designs.find "adder8") in
  let r = Atpg.run nl in
  let s = Format.asprintf "%a" Atpg.pp_report r in
  check Alcotest.bool "mentions coverage" true (String.length s > 30)

(* Counts and directed patterns pinned, recorded before fault simulation
   moved onto the compiled simulator: the random phase decides which
   faults reach SAT, so the pattern digest covers both phases. *)
let test_golden_reports () =
  let scanned_uart () =
    let scanned, _ = Dft.insert_scan (Educhip_rtl.Rtl.elaborate (Designs.uart_tx ())) in
    fst (Synth.synthesize scanned ~node Synth.default_options)
  in
  let mapped name =
    fst (Synth.synthesize (Designs.netlist (Designs.find name)) ~node Synth.default_options)
  in
  List.iter
    (fun (label, nl, random_patterns, expected) ->
      let r = Atpg.run ~random_patterns nl in
      let b = Buffer.create 4096 in
      List.iter
        (fun p ->
          List.iter (fun (id, v) -> Printf.bprintf b "%d=%b," id v) p.Atpg.assignment;
          List.iter
            (fun f -> Printf.bprintf b "/%d@%b" f.Atpg.fault_net f.Atpg.stuck_at)
            p.Atpg.detects;
          Buffer.add_char b ';')
        r.Atpg.patterns;
      let detects = Atpg.detects nl in
      List.iter
        (fun p ->
          List.iter
            (fun f -> check Alcotest.bool (label ^ " pattern detects") true (detects p f))
            p.Atpg.detects)
        r.Atpg.patterns;
      check Alcotest.string label expected
        (Printf.sprintf "%d %d %d %d %d %d %s" r.Atpg.total_faults r.Atpg.detected_random
           r.Atpg.detected_sat r.Atpg.untestable r.Atpg.aborted
           (List.length r.Atpg.patterns)
           (Digest.to_hex (Digest.string (Buffer.contents b)))))
    [
      ( "adder8 rtl",
        Designs.netlist (Designs.find "adder8"),
        1,
        "112 111 0 1 0 0 d41d8cd98f00b204e9800998ecf8427e" );
      ("alu8 mapped", mapped "alu8", 64, "570 569 1 0 0 1 afd4f0a6dcabcfc0fe877b53e78480dd");
      ( "acc_cpu8 rtl",
        Designs.netlist (Designs.find "acc_cpu8"),
        64,
        "390 368 9 13 0 9 1031503abb5f260b6f6ea9ea7124d679" );
      ( "uart_tx scan mapped",
        scanned_uart (),
        1,
        "318 293 24 1 0 24 9377060d146496357db5c9a37d4a7542" );
    ]

(* Every directed pattern replayed against the whole fault list, not only
   the faults it was credited with: the pinned count of detecting pairs
   and the digest of the verdict matrix cover the negative verdicts too.
   Recorded before [detects] shared its netlist-wide set-up. *)
let test_golden_detection_matrix () =
  let mapped name =
    fst (Synth.synthesize (Designs.netlist (Designs.find name)) ~node Synth.default_options)
  in
  let scanned_uart () =
    let scanned, _ = Dft.insert_scan (Educhip_rtl.Rtl.elaborate (Designs.uart_tx ())) in
    fst (Synth.synthesize scanned ~node Synth.default_options)
  in
  List.iter
    (fun (label, nl, random_patterns, expected) ->
      let r = Atpg.run ~random_patterns nl in
      let detects = Atpg.detects nl in
      let faults = Atpg.enumerate_faults nl in
      let b = Buffer.create 4096 in
      let hits = ref 0 in
      List.iter
        (fun p ->
          List.iter
            (fun f ->
              let d = detects p f in
              if d then incr hits;
              Buffer.add_char b (if d then '1' else '0'))
            faults;
          Buffer.add_char b ';')
        r.Atpg.patterns;
      check Alcotest.string label expected
        (Printf.sprintf "%d/%d %s" !hits
           (List.length r.Atpg.patterns * List.length faults)
           (Digest.to_hex (Digest.string (Buffer.contents b)))))
    [
      ("alu8 mapped", mapped "alu8", 64, "89/570 ccf845e2716989fcc4f60def824cb359");
      ("acc_cpu8 rtl", Designs.netlist (Designs.find "acc_cpu8"), 64, "403/3510 64e3d3bac9847a673c9776a0d4cb8bfc");
      ("uart_tx scan mapped", scanned_uart (), 1, "2151/7632 94d6fc2946202550646bd1e55440da5c");
      ("cmp16 rtl", Designs.netlist (Designs.find "cmp16"), 64, "41518/168732 255d3bc0552921f01ecd09e59e3b1b12");
      ("prio16 rtl", Designs.netlist (Designs.find "prio16"), 64, "7734/18240 3e7300e593e64730683eb2fc09907d04");
    ]

let suite =
  [
    Alcotest.test_case "fault enumeration" `Quick test_fault_enumeration;
    Alcotest.test_case "full coverage on adder" `Quick test_full_coverage_on_adder;
    Alcotest.test_case "mapped netlist coverage" `Quick test_mapped_netlist_coverage;
    Alcotest.test_case "sequential design" `Quick test_sequential_design;
    Alcotest.test_case "sat rescues random misses" `Quick test_sat_rescues_random_misses;
    Alcotest.test_case "untestable redundant logic" `Quick test_untestable_redundant_logic;
    Alcotest.test_case "sat patterns actually detect" `Quick test_sat_patterns_actually_detect;
    Alcotest.test_case "mux-heavy patterns valid" `Quick test_mux_heavy_patterns_valid;
    Alcotest.test_case "counts consistent" `Quick test_counts_consistent;
    Alcotest.test_case "scan uart coverage" `Slow test_scan_uart_coverage;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "golden reports" `Slow test_golden_reports;
    Alcotest.test_case "golden detection matrix" `Slow test_golden_detection_matrix;
  ]
