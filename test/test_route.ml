module Place = Educhip_place.Place
module Route = Educhip_route.Route
module Synth = Educhip_synth.Synth
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs
module Flow = Educhip_flow.Flow
module Fault = Educhip_fault.Fault
module Obs = Educhip_obs.Obs

let check = Alcotest.check

let node = Pdk.find_node "edu130"

let placed name effort =
  let nl = Designs.netlist (Designs.find name) in
  let mapped, _ = Synth.synthesize nl ~node Synth.default_options in
  Place.place mapped ~node effort

let test_routes_connected () =
  List.iter
    (fun name ->
      let placement = placed name Place.default_effort in
      let routed = Route.route placement Route.default_effort in
      check Alcotest.bool (name ^ " fully connected") true (Route.fully_connected routed))
    [ "adder8"; "alu8"; "gray8" ]

let test_wirelength_positive () =
  let placement = placed "adder8" Place.default_effort in
  let c = Obs.create () in
  let routed = Obs.with_collector c (fun () -> Route.route placement Route.default_effort) in
  check Alcotest.bool "positive wirelength" true (Route.wirelength_um routed > 0.0);
  check Alcotest.bool "vias" true (Route.via_count routed > 0);
  List.iter
    (fun name -> check Alcotest.bool (name ^ " counted") true (Obs.counter_value c name > 0))
    [ "route.searches"; "route.expansions" ]

let test_wirelength_sums () =
  let placement = placed "adder8" Place.default_effort in
  let routed = Route.route placement Route.default_effort in
  let from_nets =
    List.fold_left
      (fun acc (driver, _) -> acc +. Route.net_wirelength_um routed driver)
      0.0 (Place.nets placement)
  in
  check (Alcotest.float 1e-6) "net sum equals total" (Route.wirelength_um routed) from_nets

let test_rrr_reduces_overflow () =
  (* congested: high utilization and minimal effort *)
  let placement = placed "mult8" Place.low_effort in
  let r0 = Route.route placement { Route.rrr_rounds = 0; seed = 1 } in
  let r8 = Route.route placement { Route.rrr_rounds = 8; seed = 1 } in
  check Alcotest.bool "negotiation does not increase overflow" true
    (Route.overflow r8 <= Route.overflow r0)

let test_congestion_map_shape () =
  let placement = placed "adder8" Place.default_effort in
  let routed = Route.route placement Route.default_effort in
  let nx, ny = Route.grid_size routed in
  let map = Route.congestion routed in
  check Alcotest.int "x dim" nx (Array.length map);
  check Alcotest.int "y dim" ny (Array.length map.(0));
  Array.iter
    (Array.iter (fun v -> check Alcotest.bool "non-negative" true (v >= 0.0)))
    map

let test_segments_match_wirelength () =
  let placement = placed "adder8" Place.default_effort in
  let routed = Route.route placement Route.default_effort in
  List.iter
    (fun (driver, _) ->
      let segments = Route.net_segments routed driver in
      let expected = Route.net_wirelength_um routed driver in
      check (Alcotest.float 1e-6) "segment count * tile"
        expected
        (float_of_int (List.length segments) *. Route.tile_um routed))
    (Place.nets placement)

let test_determinism () =
  let placement = placed "alu8" Place.default_effort in
  let r1 = Route.route placement Route.default_effort in
  let r2 = Route.route placement Route.default_effort in
  check (Alcotest.float 1e-9) "same wirelength" (Route.wirelength_um r1)
    (Route.wirelength_um r2);
  check Alcotest.int "same vias" (Route.via_count r1) (Route.via_count r2)

let test_grid_reasonable () =
  let placement = placed "adder8" Place.default_effort in
  let routed = Route.route placement Route.default_effort in
  let nx, ny = Route.grid_size routed in
  check Alcotest.bool "grid at least 2x2" true (nx >= 2 && ny >= 2);
  check Alcotest.bool "grid bounded" true (nx <= 256 && ny <= 256)

(* The flow's own placement of a design under a preset. *)
let flow_placement name preset =
  (Flow.run_design (Designs.find name) (Flow.config ~node preset)).Flow.placement

let edges_digest routed =
  let b = Buffer.create 4096 in
  List.iter
    (fun ns ->
      Buffer.add_string b (string_of_int ns.Route.rs_driver);
      Buffer.add_char b ':';
      List.iter (fun e -> Buffer.add_string b (string_of_int e); Buffer.add_char b ',')
        ns.Route.rs_edges;
      Buffer.add_char b ';')
    (Route.snapshot routed).Route.rs_nets;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_golden name label routed (wl, vias, overflow, digest) =
  let tag what = Printf.sprintf "%s %s %s" name label what in
  check Alcotest.string (tag "wirelength_um") wl
    (Printf.sprintf "%.17g" (Route.wirelength_um routed));
  check Alcotest.int (tag "via_count") vias (Route.via_count routed);
  check Alcotest.int (tag "overflow") overflow (Route.overflow routed);
  check Alcotest.string (tag "edges digest") digest (edges_digest routed)

(* Exact routes of six designs on their flow placements: wirelength at
   %.17g, vias, overflow and a digest of every net's edge list (in
   order). They cover the five flow-teaching designs at the teaching
   preset's effort, and two open-preset designs that end with overflow,
   so all four negotiation rounds run with non-integer costs. The last case
   skips negotiation under a [Corrupt] arming. The router must reproduce
   these bit for bit; a deliberate routing change updates them. *)
let test_golden_routes () =
  List.iter
    (fun (name, preset, (label, effort), golden) ->
      check_golden name label (Route.route (flow_placement name preset) effort) golden)
    [
      ( "mult8",
        Flow.Teaching_flow,
        ("low", Route.low_effort),
        ("12117.333333333343", 1817, 115, "f26883946d262c19b36319b14f377b8f") );
      ( "mult8",
        Flow.Teaching_flow,
        ("default", Route.default_effort),
        ("12570.666666666679", 1844, 58, "f8a80fa952fc4b293ff47702fa9b0c62") );
      ( "xbar4x8",
        Flow.Teaching_flow,
        ("low", Route.low_effort),
        ("13197.333333333336", 1957, 736, "b2e04a29bd5532b397c7954e9aadba5e") );
      ( "xbar4x8",
        Flow.Teaching_flow,
        ("default", Route.default_effort),
        ("13642.66666666667", 2042, 696, "63986202b1cc965eac257ed4106ef74c") );
      ( "alu8",
        Flow.Commercial_flow,
        ("high", Route.high_effort),
        ("3752.0000000000009", 557, 0, "9273cc75b8578563a780e3a2a802815e") );
      ( "acc_cpu8",
        Flow.Teaching_flow,
        ("low", Route.low_effort),
        ("7109.3333333333367", 1147, 50, "635c1d37385af67a8bd9577b0fc4af74") );
      ( "alu8",
        Flow.Teaching_flow,
        ("low", Route.low_effort),
        ("7130.6666666666679", 1190, 57, "d5d3df8366f1d6ff0123b0eab03a7ff6") );
      ( "bshift16",
        Flow.Teaching_flow,
        ("low", Route.low_effort),
        ("5589.3333333333339", 840, 115, "e7059747b23574932a7978065103223b") );
      ( "xbar4x8",
        Flow.Open_flow,
        ("default", Route.default_effort),
        ("7106.6666666666661", 1178, 6, "7388ad64184fd09a5191061e46a49863") );
      ( "chain64",
        Flow.Open_flow,
        ("default", Route.default_effort),
        ("623.99999999999977", 152, 1, "b0360170afdfd9f38fa677427bf5d0b2") );
    ];
  let placement = flow_placement "mult8" Flow.Teaching_flow in
  let routed =
    Fault.with_plan ~seed:1 [ Fault.arming "route.negotiate" Fault.Corrupt ] (fun () ->
        Route.route placement Route.default_effort)
  in
  check_golden "mult8" "corrupt" routed
    ("11616", 1457, 189, "2c03ef692e22e7227d1713c52616a589")

(* A routed net is a tree over its tiles whose every branch ends at a
   pin, so dropping any one edge disconnects it: checked for each routed
   net in turn, in a snapshot where every other net is intact. *)
let test_dropped_edge_disconnects () =
  let placement = placed "alu8" Place.default_effort in
  let s = Route.snapshot (Route.route placement Route.default_effort) in
  check Alcotest.bool "intact snapshot connected" true
    (Route.fully_connected (Route.restore placement s));
  let routed = List.filter (fun ns -> ns.Route.rs_edges <> []) s.Route.rs_nets in
  check Alcotest.bool "some nets routed" true (List.length routed > 10);
  List.iter
    (fun victim ->
      let edges = victim.Route.rs_edges in
      let cut = List.nth edges (List.length edges / 2) in
      let nets =
        List.map
          (fun ns ->
            if ns == victim then
              { ns with Route.rs_edges = List.filter (fun e -> e <> cut) edges }
            else ns)
          s.Route.rs_nets
      in
      check Alcotest.bool
        (Printf.sprintf "net %d without edge %d disconnected" victim.Route.rs_driver cut)
        false
        (Route.fully_connected (Route.restore placement { s with Route.rs_nets = nets })))
    routed

(* {2 Hostile snapshots}

   A restored snapshot names edges and tiles by number; each of these
   must be rejected rather than indexing past the grid. *)

let adder8_routed =
  lazy
    (let placement = placed "adder8" Place.default_effort in
     (placement, Route.snapshot (Route.route placement Route.default_effort)))

let grid () =
  let _, s = Lazy.force adder8_routed in
  (s.Route.rs_nx, s.Route.rs_ny)

(* Restoring adder8's routes with its first net's edges or tiles
   replaced must raise [Invalid_argument]. *)
let rejects what ?edges ?tiles () =
  let placement, s = Lazy.force adder8_routed in
  let nets =
    match s.Route.rs_nets with
    | ns :: rest ->
      { ns with
        Route.rs_edges = Option.value edges ~default:ns.Route.rs_edges;
        rs_tiles = Option.value tiles ~default:ns.Route.rs_tiles }
      :: rest
    | [] -> Alcotest.fail "adder8 routes no nets"
  in
  match Route.restore placement { s with Route.rs_nets = nets } with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Invalid_argument _ -> ()

let test_restore_rejects_edge_out_of_range () =
  let nx, ny = grid () in
  rejects "negative edge id" ~edges:[ -1 ] ();
  rejects "edge id past the grid" ~edges:[ 2 * nx * ny ] ()

let test_restore_rejects_phantom_horizontal_edge () =
  let nx, _ = grid () in
  (* the horizontal edge out of tile (nx-1, 0) would wrap into row 1 *)
  rejects "horizontal edge out of the last column" ~edges:[ 2 * (nx - 1) ] ()

let test_restore_rejects_phantom_vertical_edge () =
  let nx, ny = grid () in
  (* the vertical edge out of tile (0, ny-1) points off the grid *)
  rejects "vertical edge out of the last row" ~edges:[ (2 * (ny - 1) * nx) + 1 ] ()

let test_restore_rejects_tile_outside_grid () =
  let nx, ny = grid () in
  List.iter
    (fun xy -> rejects "tile outside the grid" ~tiles:[ xy ] ())
    [ (-1, 0); (0, -1); (nx, 0); (0, ny) ]

let prop_random_designs_route_connected =
  QCheck.Test.make ~name:"random mapped designs route fully connected" ~count:12
    QCheck.small_nat (fun seed ->
      let h = Gen.random_design seed in
      let mapped, _ = Synth.synthesize h.Gen.netlist ~node Synth.default_options in
      let placement = Place.place mapped ~node Place.low_effort in
      let routed = Route.route placement Route.default_effort in
      Route.fully_connected routed)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_designs_route_connected ]

let suite =
  [
    Alcotest.test_case "routes connected" `Quick test_routes_connected;
    Alcotest.test_case "wirelength positive" `Quick test_wirelength_positive;
    Alcotest.test_case "wirelength sums" `Quick test_wirelength_sums;
    Alcotest.test_case "rrr reduces overflow" `Quick test_rrr_reduces_overflow;
    Alcotest.test_case "congestion map shape" `Quick test_congestion_map_shape;
    Alcotest.test_case "segments match wirelength" `Quick test_segments_match_wirelength;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "grid reasonable" `Quick test_grid_reasonable;
    Alcotest.test_case "golden routes" `Slow test_golden_routes;
    Alcotest.test_case "dropped edge disconnects" `Quick test_dropped_edge_disconnects;
    Alcotest.test_case "restore rejects edge out of range" `Quick
      test_restore_rejects_edge_out_of_range;
    Alcotest.test_case "restore rejects phantom horizontal edge" `Quick
      test_restore_rejects_phantom_horizontal_edge;
    Alcotest.test_case "restore rejects phantom vertical edge" `Quick
      test_restore_rejects_phantom_vertical_edge;
    Alcotest.test_case "restore rejects tile outside grid" `Quick
      test_restore_rejects_tile_outside_grid;
  ]
  @ qsuite
