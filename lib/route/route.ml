module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Place = Educhip_place.Place
module Pqueue = Educhip_util.Pqueue
module Union_find = Educhip_util.Union_find
module Obs = Educhip_obs.Obs
module Fault = Educhip_fault.Fault

let metric_names = [ "route.rrr_rounds"; "route.nets_ripped" ]

let fault_sites = [ "route.negotiate" ]

type effort = { rrr_rounds : int; seed : int }

let default_effort = { rrr_rounds = 4; seed = 1 }
let high_effort = { rrr_rounds = 12; seed = 1 }
let low_effort = { rrr_rounds = 1; seed = 1 }

type segment = { from_xy : int * int; to_xy : int * int; layer_change : bool }

type net_route = {
  driver : int;
  sink_cells : int list;
  mutable edges : int list; (* edge ids, deduplicated *)
  mutable tiles : (int * int) list;
  mutable vias : int;
}

type t = {
  placement : Place.t;
  nx : int;
  ny : int;
  tile : float;
  capacity : int;
  usage : int array; (* per edge id *)
  routes : net_route list; (* one per multi-pin net *)
  by_driver : (int, net_route) Hashtbl.t;
}

let placement t = t.placement
let grid_size t = (t.nx, t.ny)
let tile_um t = t.tile

(* Edge ids: horizontal edge (x,y)->(x+1,y) and vertical (x,y)->(x,y+1). *)
let h_edge nx x y = 2 * ((y * nx) + x)
let v_edge nx x y = (2 * ((y * nx) + x)) + 1

let edge_count nx ny = 2 * nx * ny

let route placement effort =
  if effort.rrr_rounds < 0 then invalid_arg "Route.route: rrr_rounds must be >= 0";
  let node = Place.node placement in
  let die_w, die_h = Place.die_um placement in
  (* tile size: a few routing pitches, capped so grids stay small *)
  let pitch = node.Pdk.track_pitch_um in
  let base_tile = pitch *. 6.0 in
  let tile = Float.max base_tile (Float.max die_w die_h /. 192.0) in
  let nx = max 2 (int_of_float (ceil (die_w /. tile))) in
  let ny = max 2 (int_of_float (ceil (die_h /. tile))) in
  let tracks_per_tile = Float.max 1.0 (tile /. pitch) in
  (* M1 is consumed by cell-internal routing and the top two layers by the
     power grid, so only [metal_layers - 3] layers carry signals, split
     between the two directions *)
  let signal_layers = max 1 ((node.Pdk.metal_layers - 3) / 2) in
  let capacity =
    max 1 (int_of_float (tracks_per_tile *. float_of_int signal_layers))
  in
  let usage = Array.make (edge_count nx ny) 0 in
  let history = Array.make (edge_count nx ny) 0.0 in
  let tile_of id =
    let x, y = Place.location placement id in
    let tx = max 0 (min (nx - 1) (int_of_float (x /. tile))) in
    let ty = max 0 (min (ny - 1) (int_of_float (y /. tile))) in
    (tx, ty)
  in
  (* {2 One driver-to-sink connection via congestion-aware A*}

     Sources are all tiles already owned by the net (cost 0), target is the
     sink tile; the result appends new edges/tiles to the net. *)
  let penalty = ref 2.0 in
  let astar net_tiles target =
    let tx, ty = target in
    let dist = Hashtbl.create 64 in
    let parent = Hashtbl.create 64 in
    let frontier = Pqueue.create () in
    let heuristic (x, y) = float_of_int (abs (x - tx) + abs (y - ty)) in
    List.iter
      (fun xy ->
        Hashtbl.replace dist xy 0.0;
        Pqueue.push frontier ~priority:(heuristic xy) xy)
      net_tiles;
    let edge_cost eid =
      1.0
      +. history.(eid)
      +. (!penalty *. float_of_int (max 0 (usage.(eid) + 1 - capacity)))
    in
    let rec search () =
      match Pqueue.pop frontier with
      | None -> None
      | Some ((x, y) as xy) ->
        if xy = target then Some xy
        else begin
          let d = Hashtbl.find dist xy in
          let relax nxy eid =
            let nd = d +. edge_cost eid in
            let better =
              match Hashtbl.find_opt dist nxy with Some old -> nd < old | None -> true
            in
            if better then begin
              Hashtbl.replace dist nxy nd;
              Hashtbl.replace parent nxy (xy, eid);
              Pqueue.push frontier ~priority:(nd +. heuristic nxy) nxy
            end
          in
          if x + 1 < nx then relax (x + 1, y) (h_edge nx x y);
          if x - 1 >= 0 then relax (x - 1, y) (h_edge nx (x - 1) y);
          if y + 1 < ny then relax (x, y + 1) (v_edge nx x y);
          if y - 1 >= 0 then relax (x, y - 1) (v_edge nx x (y - 1));
          search ()
        end
    in
    match search () with
    | None -> None
    | Some _ ->
      (* walk parents back to a source tile *)
      let rec backtrack xy acc_edges acc_tiles =
        match Hashtbl.find_opt parent xy with
        | None -> (acc_edges, acc_tiles)
        | Some (prev, eid) -> backtrack prev (eid :: acc_edges) (prev :: acc_tiles)
      in
      let edges, tiles = backtrack target [] [ target ] in
      Some (edges, tiles)
  in
  let route_net net =
    let driver_tile = tile_of net.driver in
    net.tiles <- [ driver_tile ];
    net.edges <- [];
    net.vias <- 0;
    List.iter
      (fun sink ->
        let target = tile_of sink in
        if not (List.mem target net.tiles) then
          match astar net.tiles target with
          | None -> () (* unreachable only on a degenerate grid *)
          | Some (edges, tiles) ->
            let fresh = List.filter (fun e -> not (List.mem e net.edges)) edges in
            List.iter (fun e -> usage.(e) <- usage.(e) + 1) fresh;
            net.edges <- fresh @ net.edges;
            net.tiles <- List.filter (fun t -> not (List.mem t net.tiles)) tiles @ net.tiles;
            (* direction changes along the fresh path are vias *)
            let rec count_bends = function
              | a :: (b :: _ as rest) ->
                (if a land 1 <> b land 1 then 1 else 0) + count_bends rest
              | [ _ ] | [] -> 0
            in
            net.vias <- net.vias + count_bends edges + 1)
      net.sink_cells
  in
  let rip_up net =
    List.iter (fun e -> usage.(e) <- usage.(e) - 1) net.edges;
    net.edges <- [];
    net.tiles <- [];
    net.vias <- 0
  in
  (* route short nets first: they have the least flexibility *)
  let nets =
    Place.nets placement
    |> List.map (fun (driver, sinks) ->
           ( Place.net_hpwl_um placement driver,
             { driver; sink_cells = sinks; edges = []; tiles = []; vias = 0 } ))
    |> List.stable_sort (fun ((ha : float), _) (hb, _) -> compare ha hb)
    |> List.map snd
  in
  Obs.with_span "route.initial"
    ~attrs:[ ("nets", Obs.Int (List.length nets)) ]
    (fun () -> List.iter route_net nets);
  (* {2 Negotiated rip-up and reroute}

     Each round rips up the nets crossing overflowed edges and reroutes
     them under increased history/penalty costs. Negotiation can move
     congestion around before it resolves it, so the best solution seen
     (fewest overflows, then shortest wirelength) is kept. *)
  let overflowed_edges () =
    let acc = ref [] in
    Array.iteri (fun e u -> if u > capacity then acc := e :: !acc) usage;
    !acc
  in
  let total_overflow () =
    Array.fold_left (fun acc u -> acc + max 0 (u - capacity)) 0 usage
  in
  let total_edges () =
    List.fold_left (fun acc net -> acc + List.length net.edges) 0 nets
  in
  let snapshot () =
    (Array.copy usage, List.map (fun net -> (net, net.edges, net.tiles, net.vias)) nets)
  in
  let restore (saved_usage, saved_nets) =
    Array.blit saved_usage 0 usage 0 (Array.length usage);
    List.iter
      (fun (net, edges, tiles, vias) ->
        net.edges <- edges;
        net.tiles <- tiles;
        net.vias <- vias)
      saved_nets
  in
  let best = ref (snapshot ()) in
  let best_score = ref (total_overflow (), total_edges ()) in
  let obs_on = Obs.enabled () in
  if obs_on then Obs.observe "route.overflow" (float_of_int (total_overflow ()));
  let rec negotiate round =
    if round < effort.rrr_rounds then begin
      match overflowed_edges () with
      | [] -> ()
      | bad ->
        List.iter (fun e -> history.(e) <- history.(e) +. 0.5) bad;
        penalty := !penalty *. 1.3;
        let bad_set = Hashtbl.create 64 in
        List.iter (fun e -> Hashtbl.replace bad_set e ()) bad;
        let victims =
          List.filter (fun net -> List.exists (Hashtbl.mem bad_set) net.edges) nets
        in
        List.iter rip_up victims;
        List.iter route_net victims;
        let score = (total_overflow (), total_edges ()) in
        if obs_on then begin
          Obs.incr_counter "route.rrr_rounds";
          Obs.add_counter "route.nets_ripped" (List.length victims);
          Obs.observe "route.overflow" (float_of_int (fst score))
        end;
        if score < !best_score then begin
          best_score := score;
          best := snapshot ()
        end;
        negotiate (round + 1)
    end
  in
  (* A corrupt negotiation skips rip-up-and-reroute: the initial greedy
     routes are returned as-is, typically with residual overflow that a
     flow-level acceptance check can see. *)
  if not (Fault.corrupted "route.negotiate") then begin
    Fault.check "route.negotiate";
    Obs.with_span "route.negotiate"
      ~attrs:[ ("max_rounds", Obs.Int effort.rrr_rounds) ]
      (fun () -> negotiate 0)
  end;
  if (total_overflow (), total_edges ()) > !best_score then restore !best;
  let by_driver = Hashtbl.create 64 in
  List.iter (fun net -> Hashtbl.replace by_driver net.driver net) nets;
  { placement; nx; ny; tile; capacity; usage; routes = nets; by_driver }

let wirelength_um t =
  List.fold_left
    (fun acc net -> acc +. (float_of_int (List.length net.edges) *. t.tile))
    0.0 t.routes

let net_wirelength_um t driver =
  match Hashtbl.find_opt t.by_driver driver with
  | Some net -> float_of_int (List.length net.edges) *. t.tile
  | None -> 0.0

let via_count t = List.fold_left (fun acc net -> acc + net.vias) 0 t.routes

let overflow t =
  Array.fold_left (fun acc u -> acc + max 0 (u - t.capacity)) 0 t.usage

let congestion t =
  let grid = Array.make_matrix t.nx t.ny 0.0 in
  let cap = float_of_int t.capacity in
  for x = 0 to t.nx - 1 do
    for y = 0 to t.ny - 1 do
      let edges = ref [] in
      if x + 1 < t.nx then edges := h_edge t.nx x y :: !edges;
      if x - 1 >= 0 then edges := h_edge t.nx (x - 1) y :: !edges;
      if y + 1 < t.ny then edges := v_edge t.nx x y :: !edges;
      if y - 1 >= 0 then edges := v_edge t.nx x (y - 1) :: !edges;
      let worst =
        List.fold_left (fun acc e -> Float.max acc (float_of_int t.usage.(e) /. cap)) 0.0 !edges
      in
      grid.(x).(y) <- worst
    done
  done;
  grid

(* Decode an edge id back into its two tiles. *)
let edge_tiles nx eid =
  let cell = eid / 2 in
  let x = cell mod nx and y = cell / nx in
  if eid land 1 = 0 then ((x, y), (x + 1, y)) else ((x, y), (x, y + 1))

let net_segments t driver =
  match Hashtbl.find_opt t.by_driver driver with
  | None -> []
  | Some net ->
    let rec build prev_horizontal = function
      | [] -> []
      | eid :: rest ->
        let from_xy, to_xy = edge_tiles t.nx eid in
        let horizontal = eid land 1 = 0 in
        let layer_change =
          match prev_horizontal with None -> false | Some ph -> ph <> horizontal
        in
        { from_xy; to_xy; layer_change } :: build (Some horizontal) rest
    in
    build None (List.rev net.edges)

(* {2 Artifact snapshots} *)

type net_snapshot = {
  rs_driver : int;
  rs_sinks : int list;
  rs_edges : int list;
  rs_tiles : (int * int) list;
  rs_vias : int;
}

type snapshot = {
  rs_nx : int;
  rs_ny : int;
  rs_tile : float;
  rs_capacity : int;
  rs_usage : int array;
  rs_nets : net_snapshot list;
}

let snapshot t =
  {
    rs_nx = t.nx;
    rs_ny = t.ny;
    rs_tile = t.tile;
    rs_capacity = t.capacity;
    rs_usage = Array.copy t.usage;
    rs_nets =
      List.map
        (fun net ->
          {
            rs_driver = net.driver;
            rs_sinks = net.sink_cells;
            rs_edges = net.edges;
            rs_tiles = net.tiles;
            rs_vias = net.vias;
          })
        t.routes;
  }

let restore placement s =
  if s.rs_nx < 1 || s.rs_ny < 1 || s.rs_capacity < 1 then
    invalid_arg "Route.restore: degenerate grid";
  if Array.length s.rs_usage <> edge_count s.rs_nx s.rs_ny then
    invalid_arg "Route.restore: usage array does not match the grid";
  let routes =
    List.map
      (fun ns ->
        {
          driver = ns.rs_driver;
          sink_cells = ns.rs_sinks;
          edges = ns.rs_edges;
          tiles = ns.rs_tiles;
          vias = ns.rs_vias;
        })
      s.rs_nets
  in
  let by_driver = Hashtbl.create 64 in
  List.iter (fun net -> Hashtbl.replace by_driver net.driver net) routes;
  {
    placement;
    nx = s.rs_nx;
    ny = s.rs_ny;
    tile = s.rs_tile;
    capacity = s.rs_capacity;
    usage = Array.copy s.rs_usage;
    routes;
    by_driver;
  }

let fully_connected t =
  let tile_index (x, y) = (y * t.nx) + x in
  let placement = t.placement in
  let tile_of id =
    let x, y = Place.location placement id in
    let tx = max 0 (min (t.nx - 1) (int_of_float (x /. t.tile))) in
    let ty = max 0 (min (t.ny - 1) (int_of_float (y /. t.tile))) in
    (tx, ty)
  in
  List.for_all
    (fun net ->
      let uf = Union_find.create (t.nx * t.ny) in
      List.iter
        (fun eid ->
          let a, b = edge_tiles t.nx eid in
          Union_find.union uf (tile_index a) (tile_index b))
        net.edges;
      let dt = tile_index (tile_of net.driver) in
      List.for_all (fun s -> Union_find.same uf dt (tile_index (tile_of s))) net.sink_cells)
    t.routes
