module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Place = Educhip_place.Place
module Obs = Educhip_obs.Obs
module Fault = Educhip_fault.Fault

let metric_names =
  [ "route.rrr_rounds"; "route.nets_ripped"; "route.searches"; "route.expansions" ]

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
  mutable tiles : int list; (* tile ids [y * nx + x], newest first *)
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

(* Tile (x, y) is id [y * nx + x]; an edge id's low bit is its direction
   and the rest is the id of its lower-left tile. *)
let xy_of_tile nx id = (id mod nx, id / nx)

let edge_ends nx eid =
  let a = eid / 2 in
  (a, if eid land 1 = 0 then a + 1 else a + nx)

(* The tile under a cell's placed location, clamped to the grid. *)
let tile_of_cell placement ~nx ~ny ~tile id =
  let x, y = Place.location placement id in
  let tx = max 0 (min (nx - 1) (int_of_float (x /. tile))) in
  let ty = max 0 (min (ny - 1) (int_of_float (y /. tile))) in
  (ty * nx) + tx

(* {2 The A* frontier}

   A binary min-heap of tile ids in parallel arrays: entry [i] is tile
   [ids.(i)] at priority [prio.(i)], pushed as the [order.(i)]th entry
   of the current search. Entries are ordered by (priority, insertion
   order), so every key is unique and the pop sequence does not depend
   on the heap's shape. A caller claims a slot with [frontier_slot],
   writes the priority straight into [prio] and calls
   [frontier_sift_up], so no float priority is boxed across a call; the
   id and order arrays hold ints, so no write to them goes through the
   write barrier. It lives here rather than in a shared module because
   under [-opaque] nothing from another module is inlined. *)
type frontier = {
  mutable prio : float array;
  mutable order : int array;
  mutable ids : int array;
  mutable size : int;
  mutable pushed : int;
}

let frontier_create n =
  { prio = Array.make n 0.0; order = Array.make n 0; ids = Array.make n 0; size = 0; pushed = 0 }

let frontier_clear f =
  f.size <- 0;
  f.pushed <- 0

(* Append tile [t] with the next insertion order and return its slot; the
   caller writes the priority into [f.prio] and sifts the slot up. *)
let frontier_slot f t =
  if f.size = Array.length f.ids then begin
    let grow a zero =
      let b = Array.make (2 * Array.length a) zero in
      Array.blit a 0 b 0 f.size;
      b
    in
    f.prio <- grow f.prio 0.0;
    f.order <- grow f.order 0;
    f.ids <- grow f.ids 0
  end;
  let i = f.size in
  f.order.(i) <- f.pushed;
  f.ids.(i) <- t;
  f.pushed <- f.pushed + 1;
  f.size <- i + 1;
  i

(* The entry at [i] moves up: every greater parent moves down into the
   hole until the entry fits. *)
let frontier_sift_up f i =
  let p = f.prio.(i) and o = f.order.(i) and t = f.ids.(i) in
  let hole = ref i in
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let q = f.prio.(parent) in
    if p < q || (p = q && o < f.order.(parent)) then begin
      f.prio.(!hole) <- q;
      f.order.(!hole) <- f.order.(parent);
      f.ids.(!hole) <- f.ids.(parent);
      hole := parent
    end
    else rising := false
  done;
  f.prio.(!hole) <- p;
  f.order.(!hole) <- o;
  f.ids.(!hole) <- t

(* Remove and return the least entry's tile. The hole left at the root
   walks down to a leaf, the smaller child moving up into it at each
   level; the last entry then fills the hole and sifts up. It belongs
   near the bottom, so this takes about half the comparisons of sinking
   it from the root. The frontier must not be empty. *)
let frontier_pop f =
  let top = f.ids.(0) in
  let last = f.size - 1 in
  f.size <- last;
  if last > 0 then begin
    let hole = ref 0 in
    while (2 * !hole) + 1 < last do
      let left = (2 * !hole) + 1 in
      let right = left + 1 in
      let child =
        if right < last
           &&
           let ql = f.prio.(left) and qr = f.prio.(right) in
           qr < ql || (qr = ql && f.order.(right) < f.order.(left))
        then right
        else left
      in
      f.prio.(!hole) <- f.prio.(child);
      f.order.(!hole) <- f.order.(child);
      f.ids.(!hole) <- f.ids.(child);
      hole := child
    done;
    f.prio.(!hole) <- f.prio.(last);
    f.order.(!hole) <- f.order.(last);
    f.ids.(!hole) <- f.ids.(last);
    frontier_sift_up f !hole
  end;
  top

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
  let tiles = nx * ny in
  let usage = Array.make (edge_count nx ny) 0 in
  let history = Array.make (edge_count nx ny) 0.0 in
  let tile_of = tile_of_cell placement ~nx ~ny ~tile in
  (* {2 The tile graph's search state}

     Allocated once per call and indexed by tile id. A tile's [dist] and
     parent are valid only while its [seen] stamp equals the current
     search; [closed] holds the current search while the tile has been
     expanded at its current [dist]; [owned] marks the tiles of the net
     being routed the same way, so none needs clearing between searches
     or nets. *)
  let dist = Array.make tiles 0.0 in
  let parent_tile = Array.make tiles (-1) in
  let parent_edge = Array.make tiles (-1) in
  let seen = Array.make tiles 0 in
  let closed = Array.make tiles 0 in
  let search = ref 0 in
  let owned = Array.make tiles 0 in
  let net_stamp = ref 0 in
  let frontier = frontier_create tiles in
  let expansions = ref 0 in
  (* {2 One driver-to-sink connection via congestion-aware A*}

     Sources are all tiles already owned by the net (cost 0), in the
     order of [net_tiles]; the target is the sink tile. Returns the path's
     edges and tiles from a source tile to the target, or [None] when the
     target is unreachable. *)
  let penalty = ref 2.0 in
  let astar net_tiles target =
    incr search;
    let stamp = !search in
    let penalty = !penalty in
    let tx = target mod nx and ty = target / nx in
    (* Manhattan distance to the target; an int, so that no float is boxed
       on its way back from a call *)
    let heuristic t = abs ((t mod nx) - tx) + abs ((t / nx) - ty) in
    frontier_clear frontier;
    List.iter
      (fun t ->
        seen.(t) <- stamp;
        dist.(t) <- 0.0;
        parent_tile.(t) <- -1;
        let i = frontier_slot frontier t in
        frontier.prio.(i) <- float_of_int (heuristic t);
        frontier_sift_up frontier i)
      net_tiles;
    (* [t]'s distance is read here rather than passed in, which would box
       it; [Int.max] compares ints inline, where the polymorphic [max]
       calls the runtime's generic comparison *)
    let relax t n eid =
      let nd =
        dist.(t)
        +. (1.0
           +. history.(eid)
           +. (penalty *. float_of_int (Int.max 0 (usage.(eid) + 1 - capacity))))
      in
      if seen.(n) <> stamp || nd < dist.(n) then begin
        seen.(n) <- stamp;
        dist.(n) <- nd;
        closed.(n) <- 0;
        parent_tile.(n) <- t;
        parent_edge.(n) <- eid;
        let i = frontier_slot frontier n in
        frontier.prio.(i) <- nd +. float_of_int (heuristic n);
        frontier_sift_up frontier i
      end
    in
    (* A popped tile already expanded at its current [dist] is skipped:
       expanding it again would offer each neighbour the same [nd] it
       was offered before, which no neighbour accepts, so the skip pushes
       and changes nothing that the expansion would not. *)
    let rec run () =
      if frontier.size = 0 then false
      else begin
        let t = frontier_pop frontier in
        if t = target then true
        else if closed.(t) = stamp then run ()
        else begin
          closed.(t) <- stamp;
          incr expansions;
          let x = t mod nx and y = t / nx in
          if x + 1 < nx then relax t (t + 1) (h_edge nx x y);
          if x - 1 >= 0 then relax t (t - 1) (h_edge nx (x - 1) y);
          if y + 1 < ny then relax t (t + nx) (v_edge nx x y);
          if y - 1 >= 0 then relax t (t - nx) (v_edge nx x (y - 1));
          run ()
        end
      end
    in
    if not (run ()) then None
    else begin
      (* walk parents back to a source tile *)
      let rec backtrack t acc_edges acc_tiles =
        let prev = parent_tile.(t) in
        if prev < 0 then (acc_edges, acc_tiles)
        else backtrack prev (parent_edge.(t) :: acc_edges) (prev :: acc_tiles)
      in
      Some (backtrack target [] [ target ])
    end
  in
  let route_net net =
    incr net_stamp;
    let driver_tile = tile_of net.driver in
    owned.(driver_tile) <- !net_stamp;
    net.tiles <- [ driver_tile ];
    net.edges <- [];
    net.vias <- 0;
    List.iter
      (fun sink ->
        let target = tile_of sink in
        if owned.(target) <> !net_stamp then
          match astar net.tiles target with
          | None -> () (* unreachable only on a degenerate grid *)
          | Some (edges, path) ->
            (* Only the path's first tile is already owned: every later
               tile was reached at a positive cost, so none is a source.
               Each edge thus has an unowned end and is new to the net. *)
            List.iter (fun e -> usage.(e) <- usage.(e) + 1) edges;
            net.edges <- edges @ net.edges;
            let fresh = List.tl path in
            List.iter (fun t -> owned.(t) <- !net_stamp) fresh;
            net.tiles <- fresh @ net.tiles;
            (* direction changes along the path are vias *)
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
  let total_overflow () =
    Array.fold_left (fun acc u -> acc + Int.max 0 (u - capacity)) 0 usage
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
  (* the edges over capacity at the start of the current round *)
  let bad = Array.make (edge_count nx ny) false in
  let rec negotiate round =
    if round < effort.rrr_rounds then begin
      let any_bad = ref false in
      Array.iteri
        (fun e u ->
          let over = u > capacity in
          bad.(e) <- over;
          if over then begin
            any_bad := true;
            history.(e) <- history.(e) +. 0.5
          end)
        usage;
      if !any_bad then begin
        penalty := !penalty *. 1.3;
        let victims =
          List.filter (fun net -> List.exists (fun e -> bad.(e)) net.edges) nets
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
  if obs_on then begin
    Obs.add_counter "route.searches" !search;
    Obs.add_counter "route.expansions" !expansions
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
  let a, b = edge_ends nx eid in
  (xy_of_tile nx a, xy_of_tile nx b)

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
            rs_tiles = List.map (xy_of_tile t.nx) net.tiles;
            rs_vias = net.vias;
          })
        t.routes;
  }

let restore placement s =
  if s.rs_nx < 1 || s.rs_ny < 1 || s.rs_capacity < 1 then
    invalid_arg "Route.restore: degenerate grid";
  if Array.length s.rs_usage <> edge_count s.rs_nx s.rs_ny then
    invalid_arg "Route.restore: usage array does not match the grid";
  let nx = s.rs_nx and ny = s.rs_ny in
  (* the grid has no horizontal edge out of its last column and no
     vertical edge out of its last row, though their ids exist *)
  let check_edge eid =
    let cell = eid / 2 in
    if
      eid < 0
      || eid >= edge_count nx ny
      || (eid land 1 = 0 && cell mod nx = nx - 1)
      || (eid land 1 = 1 && cell / nx = ny - 1)
    then invalid_arg (Printf.sprintf "Route.restore: edge %d is not in the grid" eid)
  in
  let check_tile (x, y) =
    if x < 0 || x >= nx || y < 0 || y >= ny then
      invalid_arg (Printf.sprintf "Route.restore: tile (%d, %d) is not in the grid" x y)
  in
  List.iter
    (fun ns ->
      List.iter check_edge ns.rs_edges;
      List.iter check_tile ns.rs_tiles)
    s.rs_nets;
  let routes =
    List.map
      (fun ns ->
        {
          driver = ns.rs_driver;
          sink_cells = ns.rs_sinks;
          edges = ns.rs_edges;
          tiles = List.map (fun (x, y) -> (y * nx) + x) ns.rs_tiles;
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

(* One union-find parent array for the whole check, indexed by tile id.
   Only a net's edge ends ever leave their own set, so resetting them
   after each net leaves the array as fresh for the next one. *)
let fully_connected t =
  let parent = Array.init (t.nx * t.ny) Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let root = find p in
      parent.(i) <- root;
      root
    end
  in
  let tile_of = tile_of_cell t.placement ~nx:t.nx ~ny:t.ny ~tile:t.tile in
  List.for_all
    (fun net ->
      List.iter
        (fun eid ->
          let a, b = edge_ends t.nx eid in
          let ra = find a and rb = find b in
          if ra <> rb then parent.(ra) <- rb)
        net.edges;
      let root = find (tile_of net.driver) in
      let connected = List.for_all (fun s -> find (tile_of s) = root) net.sink_cells in
      List.iter
        (fun eid ->
          let a, b = edge_ends t.nx eid in
          parent.(a) <- a;
          parent.(b) <- b)
        net.edges;
      connected)
    t.routes
