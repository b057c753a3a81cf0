(** Global routing on a capacitated grid.

    The die is discretized into routing tiles at the node's track pitch
    (coarsened to keep tile counts manageable); each tile boundary has a
    capacity derived from the metal-layer count. Every placed net is
    decomposed into driver→sink two-pin connections, each routed with A*
    over the congestion-aware grid; negotiated rip-up-and-reroute passes
    (history cost, as in PathFinder) resolve overflows. Effort presets
    control the number of negotiation rounds — the E6/A3 knob.

    The router keeps its own tile graph: tile [(x, y)] is the integer id
    [y * nx + x], and edge ids index the boundaries between tiles. One
    call to {!route} allocates its search state once, as arrays indexed
    by tile id (distance, parent tile and edge, a search stamp that
    invalidates them between searches, a stamp marking the tiles already
    expanded at their current distance, a stamp marking the tiles of the
    net being routed) plus one frontier of tile ids, and reuses them for
    every connection of every net and negotiation round. The frontier is
    a binary heap private to this module, in parallel unboxed arrays
    (float priority, insertion order, tile id), ordered by priority and
    then insertion order; a popped tile already expanded at its current
    distance is skipped, which cannot change the route.

    Results expose per-net routed wirelength (feeding STA wire delays),
    via counts, the congestion map, and remaining overflow (fed to DRC). *)

type effort = {
  rrr_rounds : int;  (** rip-up-and-reroute negotiation rounds (≥ 0) *)
  seed : int;
}

type t

val default_effort : effort
val high_effort : effort
val low_effort : effort

type segment = {
  from_xy : int * int;  (** tile coordinates *)
  to_xy : int * int;
  layer_change : bool;  (** a via: direction change or pin hop *)
}

val route : Educhip_place.Place.t -> effort -> t
(** Route all nets of a placement. Never fails: unresolved congestion is
    reported as overflow rather than an error. *)

val placement : t -> Educhip_place.Place.t

val grid_size : t -> int * int
(** Tiles in x and y. *)

val tile_um : t -> float
(** Edge length of one routing tile. *)

val wirelength_um : t -> float
(** Total routed wirelength. *)

val net_wirelength_um : t -> Educhip_netlist.Netlist.cell_id -> float
(** Routed length of the net driven by the cell (0 when unrouted/absent). *)

val via_count : t -> int

val overflow : t -> int
(** Tile-boundary crossings above capacity summed over the grid; 0 means
    congestion-clean routing. *)

val congestion : t -> float array array
(** Per-tile usage / capacity (max over the four boundaries); for reports
    and the congestion-map example. *)

val net_segments : t -> Educhip_netlist.Netlist.cell_id -> segment list
(** Routed segments of a net (empty when absent). *)

val fully_connected : t -> bool
(** Every net's pins are connected through its routed edges — checked
    with a union-find over tile ids that is reset after each net; the
    invariant DRC re-verifies. *)

type net_snapshot = {
  rs_driver : int;
  rs_sinks : int list;
  rs_edges : int list;  (** grid edge ids, deduplicated *)
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
(** The serializable state of a routing result: grid parameters, per-edge
    usage (DRC's congestion input), and every net's routed edges/tiles. *)

val snapshot : t -> snapshot

val restore : Educhip_place.Place.t -> snapshot -> t
(** Rebuild a routing result around the given placement without rerunning
    the router.
    @raise Invalid_argument on a degenerate grid, a usage array that
    does not match it, an edge the grid does not have (an id outside
    [\[0, 2 * nx * ny)], a horizontal edge out of the last column or a
    vertical edge out of the last row) or a tile outside the grid. *)

val metric_names : string list
(** Counter families {!route} reports to [Educhip_obs.Obs] when
    telemetry is enabled (negotiation rounds run, nets ripped up, A*
    searches, tiles expanded by them); the post-pass overflow trajectory
    is additionally sampled into the [route.overflow] histogram. *)

val fault_sites : string list
(** [Educhip_fault] probe sites inside this kernel: ["route.negotiate"]
    (probed before rip-up-and-reroute; a [Corrupt] arming skips
    negotiation so the result keeps its residual {!overflow}). *)
