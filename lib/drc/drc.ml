module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Place = Educhip_place.Place
module Route = Educhip_route.Route

type violation =
  | Placement_illegal of string
  | Congestion_overflow of { tiles_over : int; worst_ratio : float }
  | Net_disconnected of Netlist.cell_id
  | Netlist_unsound of string
  | Net_too_long of { driver : Netlist.cell_id; length_um : float; limit_um : float }

type report = { violations : violation list; checks_run : int; clean : bool }

(* Long unbuffered wires accumulate charge during etch; 400 gate pitches is
   the stand-in limit, scaled with the node. *)
let max_net_length_um node = 400.0 *. node.Pdk.track_pitch_um *. 4.0

let check routed =
  let placement = Route.placement routed in
  let netlist = Place.netlist placement in
  let node = Place.node placement in
  let violations = ref [] in
  let checks = ref 0 in
  (* 1. placement legality *)
  incr checks;
  List.iter
    (fun msg -> violations := Placement_illegal msg :: !violations)
    (Place.check_legal placement);
  (* 2. congestion *)
  incr checks;
  let over = Route.overflow routed in
  if over > 0 then begin
    let worst =
      Array.fold_left
        (fun acc col -> Array.fold_left Float.max acc col)
        0.0 (Route.congestion routed)
    in
    violations := Congestion_overflow { tiles_over = over; worst_ratio = worst } :: !violations
  end;
  (* 3. connectivity *)
  incr checks;
  if not (Route.fully_connected routed) then begin
    (* identify the broken nets for the report *)
    List.iter
      (fun (driver, _) ->
        let len = Route.net_wirelength_um routed driver in
        let hpwl = Place.net_hpwl_um placement driver in
        (* a net spanning distinct tiles but with no routed segments is broken *)
        if len = 0.0 && hpwl > Route.tile_um routed then
          violations := Net_disconnected driver :: !violations)
      (Place.nets placement)
  end;
  (* 4. netlist soundness *)
  incr checks;
  List.iter
    (fun v ->
      violations :=
        Netlist_unsound (Format.asprintf "%a" Netlist.pp_violation v) :: !violations)
    (Netlist.validate netlist);
  (* 5. maximum net length *)
  incr checks;
  let limit = max_net_length_um node in
  List.iter
    (fun (driver, _) ->
      let length = Route.net_wirelength_um routed driver in
      if length > limit then
        violations := Net_too_long { driver; length_um = length; limit_um = limit } :: !violations)
    (Place.nets placement);
  let violations = List.rev !violations in
  { violations; checks_run = !checks; clean = violations = [] }

let pp_violation ppf = function
  | Placement_illegal msg -> Format.fprintf ppf "placement: %s" msg
  | Congestion_overflow { tiles_over; worst_ratio } ->
    Format.fprintf ppf "congestion: %d boundary crossings over capacity (worst %.0f%%)"
      tiles_over (worst_ratio *. 100.0)
  | Net_disconnected driver -> Format.fprintf ppf "net %d: pins not connected" driver
  | Netlist_unsound msg -> Format.fprintf ppf "netlist: %s" msg
  | Net_too_long { driver; length_um; limit_um } ->
    Format.fprintf ppf "net %d: %.0f um exceeds the %.0f um unbuffered limit" driver
      length_um limit_um
