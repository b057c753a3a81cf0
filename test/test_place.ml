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
   (120k moves), alu8 and acc_cpu8 also at the open preset's default
   effort (20k moves). A placer change that claims to be bit-identical
   must leave all of these untouched; a deliberate QoR change updates
   them. *)
let coordinate_digest placement =
  let s = Place.snapshot placement in
  let b = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) s.Place.snap_xs;
  Array.iter (fun y -> Buffer.add_string b (Printf.sprintf "%h;" y)) s.Place.snap_ys;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_hpwl () =
  let golden synth effort label cases =
    List.iter
      (fun (name, hpwl, accepted, rejected, digest) ->
        let nl = Designs.netlist (Designs.find name) in
        let mapped = fst (Synth.synthesize nl ~node synth) in
        let c = Obs.create () in
        let placement = Obs.with_collector c (fun () -> Place.place mapped ~node effort) in
        let what = Printf.sprintf "%s %s " name label in
        check Alcotest.string (what ^ "hpwl") hpwl
          (Printf.sprintf "%.17g" (Place.hpwl_um placement));
        check Alcotest.int (what ^ "accepted") accepted
          (Obs.counter_value c "place.moves_accepted");
        check Alcotest.int (what ^ "rejected") rejected
          (Obs.counter_value c "place.moves_rejected");
        check Alcotest.string (what ^ "coordinates") digest (coordinate_digest placement))
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
      ("alu8", "3925.3841475316481", 605, 19326, "5fc591393f3dc169f7691f81f936bcfe");
      ("acc_cpu8", "3813.5234947861941", 685, 19235, "2eaa5fbf34035bde705247bf7593f7f3");
    ]

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
    Alcotest.test_case "die scales with area" `Quick test_die_scales_with_area;
    Alcotest.test_case "nets cover fanout" `Quick test_nets_cover_fanout;
    Alcotest.test_case "empty netlist rejected" `Quick test_empty_netlist_rejected;
  ]
  @ qsuite
