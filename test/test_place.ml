module Place = Educhip_place.Place
module Synth = Educhip_synth.Synth
module Pdk = Educhip_pdk.Pdk
module Netlist = Educhip_netlist.Netlist
module Designs = Educhip_designs.Designs
module Obs = Educhip_obs.Obs

let check = Alcotest.check

let node = Pdk.find_node "edu130"

let mapped_design name =
  let nl = Designs.netlist (Designs.find name) in
  fst (Synth.synthesize nl ~node Synth.default_options)

let test_placement_legal () =
  List.iter
    (fun name ->
      let mapped = mapped_design name in
      let placement = Place.place mapped ~node Place.default_effort in
      check Alcotest.(list string) (name ^ " legal") [] (Place.check_legal placement))
    [ "adder8"; "alu8"; "gray8"; "fir4x8" ]

let test_placement_legal_high_effort () =
  let mapped = mapped_design "alu8" in
  let placement = Place.place mapped ~node Place.high_effort in
  check Alcotest.(list string) "legal after annealing" [] (Place.check_legal placement)

let test_pads_on_edges () =
  let mapped = mapped_design "adder8" in
  let placement = Place.place mapped ~node Place.default_effort in
  let die_w, _ = Place.die_um placement in
  List.iter
    (fun id ->
      let x, _ = Place.location placement id in
      check (Alcotest.float 1e-6) "input pad at left edge" 0.0 x)
    (Netlist.inputs (Place.netlist placement));
  List.iter
    (fun id ->
      let x, _ = Place.location placement id in
      check (Alcotest.float 1e-6) "output pad at right edge" die_w x)
    (Netlist.outputs (Place.netlist placement))

let test_utilization_bounds () =
  let mapped = mapped_design "alu8" in
  let placement = Place.place mapped ~node ~utilization:0.6 Place.default_effort in
  let u = Place.utilization placement in
  check Alcotest.bool "utilization near target" true (u > 0.4 && u <= 0.7);
  Alcotest.check_raises "bad utilization"
    (Invalid_argument "Place.place: utilization must be in (0, 0.95]") (fun () ->
      ignore (Place.place mapped ~node ~utilization:0.0 Place.default_effort))

let test_annealing_does_not_hurt () =
  let mapped = mapped_design "alu8" in
  let low = Place.place mapped ~node Place.low_effort in
  let high = Place.place mapped ~node Place.high_effort in
  check Alcotest.bool "annealing improves or holds HPWL" true
    (Place.hpwl_um high <= Place.hpwl_um low *. 1.05)

let test_hpwl_positive_and_consistent () =
  let mapped = mapped_design "adder8" in
  let placement = Place.place mapped ~node Place.default_effort in
  let total = Place.hpwl_um placement in
  check Alcotest.bool "positive hpwl" true (total > 0.0);
  let from_nets =
    List.fold_left
      (fun acc (driver, _) -> acc +. Place.net_hpwl_um placement driver)
      0.0 (Place.nets placement)
  in
  check (Alcotest.float 1e-6) "sum over nets" total from_nets

let test_determinism () =
  let mapped = mapped_design "adder8" in
  let p1 = Place.place mapped ~node Place.default_effort in
  let p2 = Place.place mapped ~node Place.default_effort in
  check (Alcotest.float 1e-9) "same hpwl for same seed" (Place.hpwl_um p1) (Place.hpwl_um p2);
  let p3 =
    Place.place mapped ~node { Place.default_effort with Place.seed = 99 }
  in
  (* a different seed shifts the anneal: the coordinates must differ *)
  let s1 = Place.snapshot p1 and s3 = Place.snapshot p3 in
  check Alcotest.bool "seed moves cells" true
    (s1.Place.snap_xs <> s3.Place.snap_xs || s1.Place.snap_ys <> s3.Place.snap_ys)

(* Exact results of the annealed placement: HPWL printed with %.17g,
   the accepted/rejected move counts, and an MD5 of every coordinate
   printed with %h. The nine flow-commercial designs run at high effort
   (120k moves); every flow-commercial and serve-course design runs at
   the open preset's default effort (20k moves); adder8, fir4x8 and
   xbar4x8 also run 1, 2, 7 and 500 moves under seeds 1-3, where the
   temperature is still high and most moves are decided near the
   acceptance threshold. Each case runs once under an [Obs] collector,
   which samples the temperature, and once without: the coordinates must
   not depend on telemetry. A placer change that claims to be
   bit-identical must leave all of these untouched; a deliberate QoR
   change updates them. *)
let coordinate_digest placement =
  let s = Place.snapshot placement in
  let b = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) s.Place.snap_xs;
  Array.iter (fun y -> Buffer.add_string b (Printf.sprintf "%h;" y)) s.Place.snap_ys;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_golden what mapped effort (hpwl, accepted, rejected, digest) =
  let c = Obs.create () in
  let placement = Obs.with_collector c (fun () -> Place.place mapped ~node effort) in
  check Alcotest.string (what ^ "hpwl") hpwl (Printf.sprintf "%.17g" (Place.hpwl_um placement));
  check Alcotest.int (what ^ "accepted") accepted (Obs.counter_value c "place.moves_accepted");
  check Alcotest.int (what ^ "rejected") rejected (Obs.counter_value c "place.moves_rejected");
  check Alcotest.string (what ^ "coordinates") digest (coordinate_digest placement);
  let quiet = Place.place mapped ~node effort in
  check Alcotest.string (what ^ "coordinates without telemetry") digest
    (coordinate_digest quiet)

let synthesized synth name = fst (Synth.synthesize (Designs.netlist (Designs.find name)) ~node synth)

let test_golden_hpwl () =
  let golden synth effort label cases =
    List.iter
      (fun (name, hpwl, accepted, rejected, digest) ->
        check_golden (Printf.sprintf "%s %s " name label) (synthesized synth name) effort
          (hpwl, accepted, rejected, digest))
      cases
  in
  golden Synth.high_effort_options Place.high_effort "high"
    [
      ("adder8", "584.07577445686616", 1974, 115753, "df45d39edbe3f56543396988f4acf077");
      ("mult4", "1021.5886181322862", 1397, 117288, "88a7dfa69b452f69342eb5320e52aa1c");
      ("alu8", "2908.7698309596349", 1680, 117641, "f8ea62b1cdd1dde314fc39fe5e2013f0");
      ("cmp16", "2670.6474456232427", 1563, 117723, "b8f5971216f70f44975c8be29ef2138c");
      ("fir4x8", "4097.5722782743524", 1265, 118272, "af9b68f1bedcb3b8004cd6b5832cab98");
      ("acc_cpu8", "2929.2799161864464", 1521, 117811, "ea699414ff773160bec5533a24da8481");
      ("uart_tx", "1796.2108954793935", 1694, 117332, "7adf1d60ed5f3c0f244faa347289f707");
      ("bshift16", "1499.8310619304532", 1935, 116842, "2af7bb170b291558080185a58a745754");
      ("xbar4x8", "3723.6068998710762", 2697, 116601, "1f90d086fb45ee4081f8d804382a1a48");
    ];
  golden Synth.default_options Place.default_effort "default"
    [
      ("adder8", "484.14855533601974", 351, 19182, "cc63cda4a07641ab0f86c9229397ac23");
      ("mult4", "865.24990356409512", 284, 19469, "1be44c43ca871813f7a59b53debc54d1");
      ("counter", "407.64288412300044", 275, 19118, "2ca62e5064abcdf5a63b806bbf0ba667");
      ("uart_tx", "1643.5747654681445", 443, 19401, "0c9f59408dcd561aa64719c59e1f966a");
      ("alu8", "3925.3841475316481", 605, 19326, "5fc591393f3dc169f7691f81f936bcfe");
      ("fir4x8", "3804.0814271577897", 423, 19489, "4a6e121277fc7b2e64935e1b2c45e963");
      ("acc_cpu8", "3813.5234947861941", 685, 19235, "2eaa5fbf34035bde705247bf7593f7f3");
      ("cmp16", "2546.2791863227458", 393, 19490, "f3cf7343912130bc47b8779af7ceae3c");
      ("bshift16", "2531.057467237421", 637, 19261, "a05a26d81e2c4412f1d5ca041efb03d6");
      ("xbar4x8", "4942.9407363113969", 756, 19164, "26c2feccedaf110201d35fa873516d20");
    ];
  let sweep = Hashtbl.create 3 in
  List.iter
    (fun (name, moves, seed, hpwl, accepted, rejected, digest) ->
      let mapped =
        match Hashtbl.find_opt sweep name with
        | Some m -> m
        | None ->
          let m = synthesized Synth.default_options name in
          Hashtbl.replace sweep name m;
          m
      in
      check_golden
        (Printf.sprintf "%s %d moves seed %d " name moves seed)
        mapped
        { Place.default_effort with Place.annealing_moves = moves; seed }
        (hpwl, accepted, rejected, digest))
    [
      ("adder8", 1, 1, "667.74013860938703", 0, 1, "9974813bcbd2e15d18033c8b49d57ce6");
      ("adder8", 1, 2, "667.74014748434729", 0, 1, "b8883c40df272dd8c8526b1a3d4eff94");
      ("adder8", 1, 3, "667.74015402768032", 0, 1, "f48d85c596e1133d5223c917720c34a0");
      ("adder8", 2, 1, "667.74013860938703", 0, 2, "9974813bcbd2e15d18033c8b49d57ce6");
      ("adder8", 2, 2, "667.74014748434729", 0, 2, "b8883c40df272dd8c8526b1a3d4eff94");
      ("adder8", 2, 3, "667.74015402768032", 0, 2, "f48d85c596e1133d5223c917720c34a0");
      ("adder8", 7, 1, "667.74013860938703", 0, 7, "9974813bcbd2e15d18033c8b49d57ce6");
      ("adder8", 7, 2, "702.06972573288908", 1, 6, "8dfab5455f446085cf0d6675e70e3581");
      ("adder8", 7, 3, "667.74015402768032", 0, 7, "f48d85c596e1133d5223c917720c34a0");
      ("adder8", 500, 1, "565.83102076025955", 31, 457, "c8a861cd1224d34a5de274029e71495d");
      ("adder8", 500, 2, "550.90779717088753", 26, 457, "b23f0447f162f0c88859714aad84baab");
      ("adder8", 500, 3, "527.66524098790796", 32, 452, "4f3dce7d949a2b61c655cc64f55da3ff");
      ("fir4x8", 1, 1, "3975.472540255334", 0, 1, "564eda58276def298d128e217c7b7007");
      ("fir4x8", 1, 2, "4114.0074077194176", 0, 1, "72364b0f06019ff379cbb2f9e7264530");
      ("fir4x8", 1, 3, "4043.2135410537653", 0, 1, "e771738d6ce317c3f287590fc4118ed4");
      ("fir4x8", 2, 1, "3975.472540255334", 0, 2, "564eda58276def298d128e217c7b7007");
      ("fir4x8", 2, 2, "4114.0074077194176", 0, 2, "72364b0f06019ff379cbb2f9e7264530");
      ("fir4x8", 2, 3, "4043.2135410537653", 0, 2, "e771738d6ce317c3f287590fc4118ed4");
      ("fir4x8", 7, 1, "3975.0897060650477", 1, 6, "0702903dd051751835ed1a15a9bfa83c");
      ("fir4x8", 7, 2, "4114.0074077194176", 0, 7, "72364b0f06019ff379cbb2f9e7264530");
      ("fir4x8", 7, 3, "4026.8130231436594", 1, 6, "21bcd948bd7628e31f1cb2505a5cf657");
      ("fir4x8", 500, 1, "3870.2292893267086", 35, 465, "0984a2d217a76ac4b72024147a0ff357");
      ("fir4x8", 500, 2, "3989.589456023351", 37, 459, "772ba3dfb38bbd28711842d0de91fe8b");
      ("fir4x8", 500, 3, "4100.6104384661867", 24, 474, "d44821a9bb7cb10e971bc90f27ab988d");
      ("xbar4x8", 1, 1, "7561.2044747646469", 0, 1, "7eb294b5858968c20ed877f7367af5a2");
      ("xbar4x8", 1, 2, "7557.8577563216186", 1, 0, "70d93d5f394948a155c25264fedc8cc3");
      ("xbar4x8", 1, 3, "7509.4425010167988", 0, 1, "70c23a5954b0a1beb7b7cbace274ec55");
      ("xbar4x8", 2, 1, "7561.2044747646469", 0, 2, "7eb294b5858968c20ed877f7367af5a2");
      ("xbar4x8", 2, 2, "7557.8577563216186", 1, 1, "70d93d5f394948a155c25264fedc8cc3");
      ("xbar4x8", 2, 3, "7509.4425010167988", 0, 2, "70c23a5954b0a1beb7b7cbace274ec55");
      ("xbar4x8", 7, 1, "7547.8278924063998", 1, 6, "f787d5a33d6957490e2a5a4d96903779");
      ("xbar4x8", 7, 2, "7544.6956893614915", 3, 4, "2f9dbc9c4f050cbf158eb344599913a7");
      ("xbar4x8", 7, 3, "7447.1376164960539", 2, 5, "4779d1af325ae62c53d229b11454e0a0");
      ("xbar4x8", 500, 1, "6847.2718140174165", 78, 422, "a8cae2489290e63f877aa3295b0f085b");
      ("xbar4x8", 500, 2, "6706.1807118223587", 81, 418, "8377726510d4ccb8b446af8a8f50382a");
      ("xbar4x8", 500, 3, "6809.2017276736169", 59, 439, "eb9e4f93f2ae9c3c9be1c8599f030297");
    ]

(* A move allocates at most the boxed float of its one [Rng.float] draw
   (2 words): the anneal's minor allocation, over a run that skips it,
   stays under 3 words per move. *)
let test_anneal_allocation () =
  List.iter
    (fun name ->
      let mapped = synthesized Synth.high_effort_options name in
      let words effort =
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Place.place mapped ~node effort));
        Gc.minor_words () -. before
      in
      let moves = Place.high_effort.Place.annealing_moves in
      let extra = words Place.high_effort -. words { Place.high_effort with annealing_moves = 0 } in
      if extra > 3.0 *. float_of_int moves then
        Alcotest.failf "%s: %.0f minor words over %d moves" name extra moves)
    [ "alu8"; "xbar4x8" ]

let test_die_scales_with_area () =
  let small = mapped_design "adder8" in
  let large = mapped_design "mult8" in
  let ps = Place.place small ~node Place.low_effort in
  let pl = Place.place large ~node Place.low_effort in
  let ws, hs = Place.die_um ps and wl, hl = Place.die_um pl in
  check Alcotest.bool "bigger design, bigger die" true (wl *. hl > ws *. hs)

let test_nets_cover_fanout () =
  let mapped = mapped_design "adder8" in
  let placement = Place.place mapped ~node Place.low_effort in
  let nets = Place.nets placement in
  (* every net driver must actually drive at least one sink *)
  List.iter
    (fun (_, sinks) -> check Alcotest.bool "sink present" true (sinks <> []))
    nets;
  check Alcotest.bool "nets exist" true (nets <> [])

let test_empty_netlist_rejected () =
  let empty = Netlist.create ~name:"empty" in
  Alcotest.check_raises "empty" (Invalid_argument "Place.place: empty netlist") (fun () ->
      ignore (Place.place empty ~node Place.default_effort))

let prop_random_designs_place_legally =
  QCheck.Test.make ~name:"random mapped designs place legally" ~count:15 QCheck.small_nat
    (fun seed ->
      let h = Gen.random_design seed in
      let mapped, _ = Synth.synthesize h.Gen.netlist ~node Synth.default_options in
      let placement = Place.place mapped ~node Place.low_effort in
      Place.check_legal placement = [])

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_designs_place_legally ]

let suite =
  [
    Alcotest.test_case "placement legal" `Quick test_placement_legal;
    Alcotest.test_case "legal after annealing" `Quick test_placement_legal_high_effort;
    Alcotest.test_case "pads on edges" `Quick test_pads_on_edges;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "annealing does not hurt" `Quick test_annealing_does_not_hurt;
    Alcotest.test_case "hpwl consistency" `Quick test_hpwl_positive_and_consistent;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "golden hpwl" `Quick test_golden_hpwl;
    Alcotest.test_case "anneal allocation bound" `Quick test_anneal_allocation;
    Alcotest.test_case "die scales with area" `Quick test_die_scales_with_area;
    Alcotest.test_case "nets cover fanout" `Quick test_nets_cover_fanout;
    Alcotest.test_case "empty netlist rejected" `Quick test_empty_netlist_rejected;
  ]
  @ qsuite
