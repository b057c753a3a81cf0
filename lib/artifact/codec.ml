module Flow = Educhip_flow.Flow
module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Synth = Educhip_synth.Synth
module Place = Educhip_place.Place
module Route = Educhip_route.Route
module Timing = Educhip_timing.Timing
module Power = Educhip_power.Power
module Drc = Educhip_drc.Drc
module Cts = Educhip_cts.Cts
module J = Educhip_obs.Jsonout

(* Every decoder fails with [Failure] on malformed input: the store
   treats that as corruption and quarantines the entry. Missing decode
   {e context} (an upstream netlist or placement that was never restored)
   is a different condition and surfaces as [None] from {!state_of_json},
   which the memo treats as a plain miss. *)

let fail what = failwith ("artifact codec: " ^ what)

let member k j = match J.member k j with Some v -> v | None -> fail ("missing " ^ k)

let to_int = function J.Int n -> n | _ -> fail "expected int"

let to_float = function
  | J.Float f -> f
  | J.Int n -> float_of_int n
  | J.Null -> Float.nan (* Jsonout emits non-finite floats as null *)
  | _ -> fail "expected number"

let to_string = function J.String s -> s | _ -> fail "expected string"
let to_bool = function J.Bool b -> b | _ -> fail "expected bool"
let to_list = function J.List l -> l | _ -> fail "expected list"

let int_field k j = to_int (member k j)
let float_field k j = to_float (member k j)

let xy_to_json (x, y) = J.List [ J.Int x; J.Int y ]

let xy_of_json = function
  | J.List [ a; b ] -> (to_int a, to_int b)
  | _ -> fail "expected [x,y]"

(* {2 Netlist}

   One compact row per cell: [kind, label, [fanins]]. The display name is
   deliberately absent — content-addressed snapshots dedupe across
   structurally identical designs, and the restoring run supplies its own
   name. Mapped kinds carry name/arity/table inline, mirroring
   [Netlist.structural_digest]'s canonical form. *)

let kind_to_json = function
  | Netlist.Input -> J.String "in"
  | Netlist.Output -> J.String "out"
  | Netlist.Const false -> J.String "c0"
  | Netlist.Const true -> J.String "c1"
  | Netlist.Buf -> J.String "buf"
  | Netlist.Not -> J.String "not"
  | Netlist.And -> J.String "and"
  | Netlist.Or -> J.String "or"
  | Netlist.Xor -> J.String "xor"
  | Netlist.Nand -> J.String "nand"
  | Netlist.Nor -> J.String "nor"
  | Netlist.Xnor -> J.String "xnor"
  | Netlist.Mux -> J.String "mux"
  | Netlist.Dff -> J.String "dff"
  | Netlist.Mapped m ->
    J.String (Printf.sprintf "m:%s/%d/%d" m.Netlist.cell_name m.Netlist.arity m.Netlist.table)

let kind_of_json j =
  match to_string j with
  | "in" -> Netlist.Input
  | "out" -> Netlist.Output
  | "c0" -> Netlist.Const false
  | "c1" -> Netlist.Const true
  | "buf" -> Netlist.Buf
  | "not" -> Netlist.Not
  | "and" -> Netlist.And
  | "or" -> Netlist.Or
  | "xor" -> Netlist.Xor
  | "nand" -> Netlist.Nand
  | "nor" -> Netlist.Nor
  | "xnor" -> Netlist.Xnor
  | "mux" -> Netlist.Mux
  | "dff" -> Netlist.Dff
  | s when String.length s > 2 && String.sub s 0 2 = "m:" -> (
    match String.rindex_opt s '/' with
    | None -> fail ("bad mapped kind " ^ s)
    | Some last -> (
      match String.rindex_from_opt s (last - 1) '/' with
      | None -> fail ("bad mapped kind " ^ s)
      | Some mid ->
        let cell_name = String.sub s 2 (mid - 2) in
        let arity = int_of_string (String.sub s (mid + 1) (last - mid - 1)) in
        let table = int_of_string (String.sub s (last + 1) (String.length s - last - 1)) in
        Netlist.Mapped { Netlist.cell_name; arity; table }))
  | s -> fail ("unknown cell kind " ^ s)

let netlist_to_json n =
  let cells = ref [] in
  Netlist.iter_cells n (fun _ c ->
      cells :=
        J.List
          [
            kind_to_json c.Netlist.kind;
            J.String c.Netlist.label;
            J.List (Array.to_list (Array.map (fun f -> J.Int f) c.Netlist.fanins));
          ]
        :: !cells);
  J.Obj [ ("cells", J.List (List.rev !cells)) ]

let netlist_of_json ~name j =
  let cells =
    to_list (member "cells" j)
    |> List.map (function
         | J.List [ kind; label; fanins ] ->
           {
             Netlist.kind = kind_of_json kind;
             label = to_string label;
             fanins = Array.of_list (List.map to_int (to_list fanins));
           }
         | _ -> fail "bad cell row")
    |> Array.of_list
  in
  match Netlist.restore ~name cells with
  | n -> n
  | exception Invalid_argument m -> fail m

(* {2 Kernel reports} *)

let synth_report_to_json (r : Synth.report) =
  J.Obj
    [
      ("aig_nodes_initial", J.Int r.Synth.aig_nodes_initial);
      ("aig_nodes_optimized", J.Int r.Synth.aig_nodes_optimized);
      ("aig_depth_initial", J.Int r.Synth.aig_depth_initial);
      ("aig_depth_optimized", J.Int r.Synth.aig_depth_optimized);
      ("mapped_cells", J.Int r.Synth.mapped_cells);
      ("inverters_added", J.Int r.Synth.inverters_added);
      ("mapped_area_um2", J.Float r.Synth.mapped_area_um2);
      ("flip_flops", J.Int r.Synth.flip_flops);
    ]

let synth_report_of_json j : Synth.report =
  {
    Synth.aig_nodes_initial = int_field "aig_nodes_initial" j;
    aig_nodes_optimized = int_field "aig_nodes_optimized" j;
    aig_depth_initial = int_field "aig_depth_initial" j;
    aig_depth_optimized = int_field "aig_depth_optimized" j;
    mapped_cells = int_field "mapped_cells" j;
    inverters_added = int_field "inverters_added" j;
    mapped_area_um2 = float_field "mapped_area_um2" j;
    flip_flops = int_field "flip_flops" j;
  }

let timing_report_to_json (r : Timing.report) =
  J.Obj
    [
      ("clock_period_ps", J.Float r.Timing.clock_period_ps);
      ("wns_ps", J.Float r.Timing.wns_ps);
      ("tns_ps", J.Float r.Timing.tns_ps);
      ("max_frequency_mhz", J.Float r.Timing.max_frequency_mhz);
      ("critical_path", J.List (List.map (fun id -> J.Int id) r.Timing.critical_path));
      ("critical_arrival_ps", J.Float r.Timing.critical_arrival_ps);
      ("endpoints", J.Int r.Timing.endpoints);
      ("failing_endpoints", J.Int r.Timing.failing_endpoints);
      ("whs_ps", J.Float r.Timing.whs_ps);
      ("hold_failing_endpoints", J.Int r.Timing.hold_failing_endpoints);
    ]

let timing_report_of_json j : Timing.report =
  {
    Timing.clock_period_ps = float_field "clock_period_ps" j;
    wns_ps = float_field "wns_ps" j;
    tns_ps = float_field "tns_ps" j;
    max_frequency_mhz = float_field "max_frequency_mhz" j;
    critical_path = List.map to_int (to_list (member "critical_path" j));
    critical_arrival_ps = float_field "critical_arrival_ps" j;
    endpoints = int_field "endpoints" j;
    failing_endpoints = int_field "failing_endpoints" j;
    whs_ps = float_field "whs_ps" j;
    hold_failing_endpoints = int_field "hold_failing_endpoints" j;
  }

let power_report_to_json (r : Power.report) =
  J.Obj
    [
      ("dynamic_uw", J.Float r.Power.dynamic_uw);
      ("leakage_uw", J.Float r.Power.leakage_uw);
      ("clock_uw", J.Float r.Power.clock_uw);
      ("total_uw", J.Float r.Power.total_uw);
      ("mean_activity", J.Float r.Power.mean_activity);
      ("cycles_simulated", J.Int r.Power.cycles_simulated);
    ]

let power_report_of_json j : Power.report =
  {
    Power.dynamic_uw = float_field "dynamic_uw" j;
    leakage_uw = float_field "leakage_uw" j;
    clock_uw = float_field "clock_uw" j;
    total_uw = float_field "total_uw" j;
    mean_activity = float_field "mean_activity" j;
    cycles_simulated = int_field "cycles_simulated" j;
  }

let violation_to_json = function
  | Drc.Placement_illegal s -> J.Obj [ ("t", J.String "placement"); ("msg", J.String s) ]
  | Drc.Congestion_overflow { tiles_over; worst_ratio } ->
    J.Obj
      [
        ("t", J.String "congestion");
        ("tiles_over", J.Int tiles_over);
        ("worst_ratio", J.Float worst_ratio);
      ]
  | Drc.Net_disconnected id -> J.Obj [ ("t", J.String "disconnected"); ("driver", J.Int id) ]
  | Drc.Netlist_unsound s -> J.Obj [ ("t", J.String "unsound"); ("msg", J.String s) ]
  | Drc.Net_too_long { driver; length_um; limit_um } ->
    J.Obj
      [
        ("t", J.String "too_long");
        ("driver", J.Int driver);
        ("length_um", J.Float length_um);
        ("limit_um", J.Float limit_um);
      ]

let violation_of_json j =
  match to_string (member "t" j) with
  | "placement" -> Drc.Placement_illegal (to_string (member "msg" j))
  | "congestion" ->
    Drc.Congestion_overflow
      { tiles_over = int_field "tiles_over" j; worst_ratio = float_field "worst_ratio" j }
  | "disconnected" -> Drc.Net_disconnected (int_field "driver" j)
  | "unsound" -> Drc.Netlist_unsound (to_string (member "msg" j))
  | "too_long" ->
    Drc.Net_too_long
      {
        driver = int_field "driver" j;
        length_um = float_field "length_um" j;
        limit_um = float_field "limit_um" j;
      }
  | s -> fail ("unknown violation type " ^ s)

let drc_report_to_json (r : Drc.report) =
  J.Obj
    [
      ("violations", J.List (List.map violation_to_json r.Drc.violations));
      ("checks_run", J.Int r.Drc.checks_run);
      ("clean", J.Bool r.Drc.clean);
    ]

let drc_report_of_json j : Drc.report =
  {
    Drc.violations = List.map violation_of_json (to_list (member "violations" j));
    checks_run = int_field "checks_run" j;
    clean = to_bool (member "clean" j);
  }

(* {2 Geometry snapshots} *)

let place_to_json p =
  let s = Place.snapshot p in
  J.Obj
    [
      ("die_w", J.Float s.Place.snap_die_w);
      ("rows", J.Int s.Place.snap_rows);
      ("xs", J.List (Array.to_list (Array.map (fun x -> J.Float x) s.Place.snap_xs)));
      ("ys", J.List (Array.to_list (Array.map (fun y -> J.Float y) s.Place.snap_ys)));
    ]

let place_of_json ~netlist ~node j =
  let floats k = Array.of_list (List.map to_float (to_list (member k j))) in
  let s =
    {
      Place.snap_die_w = float_field "die_w" j;
      snap_rows = int_field "rows" j;
      snap_xs = floats "xs";
      snap_ys = floats "ys";
    }
  in
  match Place.restore netlist ~node s with
  | p -> p
  | exception Invalid_argument m -> fail m

let rec tree_to_json = function
  | Cts.Leaf pts ->
    J.Obj
      [
        ( "leaf",
          J.List
            (List.map
               (fun (id, x, y) -> J.List [ J.Int id; J.Float x; J.Float y ])
               pts) );
      ]
  | Cts.Branch { x; y; children } ->
    J.Obj
      [
        ("x", J.Float x);
        ("y", J.Float y);
        ("children", J.List (List.map tree_to_json children));
      ]

let rec tree_of_json j =
  match J.member "leaf" j with
  | Some pts ->
    Cts.Leaf
      (List.map
         (function
           | J.List [ id; x; y ] -> (to_int id, to_float x, to_float y)
           | _ -> fail "bad leaf point")
         (to_list pts))
  | None ->
    Cts.Branch
      {
        x = float_field "x" j;
        y = float_field "y" j;
        children = List.map tree_of_json (to_list (member "children" j));
      }

let cts_to_json c =
  let s = Cts.snapshot c in
  J.Obj
    [
      ("root", (match s.Cts.cs_root with None -> J.Null | Some t -> tree_to_json t));
      ("root_x", J.Float s.Cts.cs_root_x);
      ("root_y", J.Float s.Cts.cs_root_y);
      ("sinks", J.Int s.Cts.cs_sinks);
      ("buffers", J.Int s.Cts.cs_buffers);
      ("depth", J.Int s.Cts.cs_depth);
      ("wirelength", J.Float s.Cts.cs_wirelength);
      ("cap", J.Float s.Cts.cs_cap);
      ( "delays",
        J.List
          (List.map (fun (id, d) -> J.List [ J.Int id; J.Float d ]) s.Cts.cs_delays) );
    ]

let cts_of_json ~node j =
  Cts.restore ~node
    {
      Cts.cs_root =
        (match member "root" j with J.Null -> None | t -> Some (tree_of_json t));
      cs_root_x = float_field "root_x" j;
      cs_root_y = float_field "root_y" j;
      cs_sinks = int_field "sinks" j;
      cs_buffers = int_field "buffers" j;
      cs_depth = int_field "depth" j;
      cs_wirelength = float_field "wirelength" j;
      cs_cap = float_field "cap" j;
      cs_delays =
        List.map
          (function
            | J.List [ id; d ] -> (to_int id, to_float d)
            | _ -> fail "bad delay entry")
          (to_list (member "delays" j));
    }

let route_to_json r =
  let s = Route.snapshot r in
  J.Obj
    [
      ("nx", J.Int s.Route.rs_nx);
      ("ny", J.Int s.Route.rs_ny);
      ("tile", J.Float s.Route.rs_tile);
      ("capacity", J.Int s.Route.rs_capacity);
      ("usage", J.List (Array.to_list (Array.map (fun u -> J.Int u) s.Route.rs_usage)));
      ( "nets",
        J.List
          (List.map
             (fun (n : Route.net_snapshot) ->
               J.Obj
                 [
                   ("driver", J.Int n.Route.rs_driver);
                   ("sinks", J.List (List.map (fun s -> J.Int s) n.Route.rs_sinks));
                   ("edges", J.List (List.map (fun e -> J.Int e) n.Route.rs_edges));
                   ("tiles", J.List (List.map xy_to_json n.Route.rs_tiles));
                   ("vias", J.Int n.Route.rs_vias);
                 ])
             s.Route.rs_nets) );
    ]

let route_of_json ~placement j =
  let s =
    {
      Route.rs_nx = int_field "nx" j;
      rs_ny = int_field "ny" j;
      rs_tile = float_field "tile" j;
      rs_capacity = int_field "capacity" j;
      rs_usage = Array.of_list (List.map to_int (to_list (member "usage" j)));
      rs_nets =
        List.map
          (fun nj ->
            {
              Route.rs_driver = int_field "driver" nj;
              rs_sinks = List.map to_int (to_list (member "sinks" nj));
              rs_edges = List.map to_int (to_list (member "edges" nj));
              rs_tiles = List.map xy_of_json (to_list (member "tiles" nj));
              rs_vias = int_field "vias" nj;
            })
          (to_list (member "nets" j));
    }
  in
  match Route.restore placement s with
  | r -> r
  | exception Invalid_argument m -> fail m

(* {2 Step reports and exec records} *)

let report_to_json (r : Flow.step_report) =
  J.Obj
    [
      ("step", J.String r.Flow.step_name);
      ("detail", J.String r.Flow.detail);
      ("wall_ms", (match r.Flow.wall_ms with None -> J.Null | Some w -> J.Float w));
    ]

let report_of_json j : Flow.step_report =
  {
    Flow.step_name = to_string (member "step" j);
    detail = to_string (member "detail" j);
    wall_ms = (match member "wall_ms" j with J.Null -> None | w -> Some (to_float w));
  }

let exec_to_json (e : Flow.step_exec) =
  J.Obj
    [
      ("step", J.String e.Flow.step);
      ("attempts", J.Int e.Flow.attempts);
      ("rung", J.Int e.Flow.rung);
      ("sim_backoff_ms", J.Float e.Flow.sim_backoff_ms);
      ( "step_failure",
        (match e.Flow.step_failure with None -> J.Null | Some s -> J.String s) );
    ]

let exec_of_json j : Flow.step_exec =
  {
    Flow.step = to_string (member "step" j);
    attempts = int_field "attempts" j;
    rung = int_field "rung" j;
    sim_backoff_ms = float_field "sim_backoff_ms" j;
    step_failure =
      (match member "step_failure" j with J.Null -> None | s -> Some (to_string s));
  }

(* {2 Step state} *)

type ctx = {
  design_name : string;
  node : Pdk.node;
  netlist : Netlist.t option;
  placement : Place.t option;
}

let state_to_json = function
  | Flow.S_synth (n, r) ->
    ( "synth",
      J.Obj [ ("netlist", netlist_to_json n); ("report", synth_report_to_json r) ] )
  | Flow.S_netlist n -> ("netlist", netlist_to_json n)
  | Flow.S_place p -> ("place", place_to_json p)
  | Flow.S_cts c -> ("cts", cts_to_json c)
  | Flow.S_route r -> ("route", route_to_json r)
  | Flow.S_timing t -> ("timing", timing_report_to_json t)
  | Flow.S_power p -> ("power", power_report_to_json p)
  | Flow.S_drc d -> ("drc", drc_report_to_json d)
  | Flow.S_not_stored -> invalid_arg "Codec.state_to_json: S_not_stored"

let state_of_json ctx ~tag j =
  match tag with
  | "synth" ->
    Some
      (Flow.S_synth
         ( netlist_of_json ~name:ctx.design_name (member "netlist" j),
           synth_report_of_json (member "report" j) ))
  | "netlist" -> Some (Flow.S_netlist (netlist_of_json ~name:ctx.design_name j))
  | "place" -> (
    match ctx.netlist with
    | None -> None
    | Some netlist -> Some (Flow.S_place (place_of_json ~netlist ~node:ctx.node j)))
  | "cts" -> Some (Flow.S_cts (cts_of_json ~node:ctx.node j))
  | "route" -> (
    match ctx.placement with
    | None -> None
    | Some placement -> Some (Flow.S_route (route_of_json ~placement j)))
  | "timing" -> Some (Flow.S_timing (timing_report_of_json j))
  | "power" -> Some (Flow.S_power (power_report_of_json j))
  | "drc" -> Some (Flow.S_drc (drc_report_of_json j))
  | t -> fail ("unknown state tag " ^ t)
