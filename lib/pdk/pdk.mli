(** Synthetic process design kits.

    The paper's technology discussion (§III-C) spans open 180/130 nm PDKs
    (GF180MCU, SKY130, IHP) through commercial 2 nm processes. This module
    provides the educhip equivalents: a family of nodes [edu180] … [edu2]
    with standard-cell libraries, wire parasitics, routing geometry, MPW
    pricing, and access conditions. Electrical values follow first-order
    scaling laws from 180 nm anchors (area ∝ feature², gate delay ∝
    feature, leakage rising steeply below 90 nm); cost and turnaround data
    are calibrated so the experiments reproduce the figures the paper
    quotes ($5M at 130 nm to $725M at 2 nm design cost, multi-month MPW
    turnarounds, NDA gating on advanced nodes).

    All cell timing numbers are in picoseconds, areas in µm², capacitance
    in fF, leakage in nW. *)

type access =
  | Open_pdk  (** downloadable, no NDA — like SKY130/GF180/IHP *)
  | Nda  (** commercial PDK under NDA, reachable via Europractice *)
  | Nda_with_track_record
      (** foundry additionally requires prior tape-outs in earlier nodes *)

type node = {
  node_name : string;  (** e.g. ["edu130"] *)
  feature_nm : float;
  metal_layers : int;
  track_pitch_um : float;  (** routing grid pitch used by place & route *)
  row_height_um : float;  (** standard-cell row height *)
  wire_r_ohm_per_um : float;
  wire_c_ff_per_um : float;
  voltage : float;
  access : access;
  mpw_cost_eur_per_mm2 : float;  (** academic MPW slot price *)
  min_mpw_area_mm2 : float;
  full_mask_cost_eur : float;  (** NRE for a dedicated full mask set *)
  turnaround_weeks : float;  (** submission to packaged parts *)
}

type cell = {
  cell_name : string;
  arity : int;  (** logic inputs (D pin for the flip-flop) *)
  table : int;  (** truth table over the inputs; ignored for the flip-flop *)
  sequential : bool;
  area : float;
  intrinsic_ps : float;  (** input-to-output delay at zero load *)
  load_ps_per_ff : float;  (** delay slope vs. output load *)
  input_cap_ff : float;  (** per input pin *)
  leakage_nw : float;
}

val nodes : node list
(** All eleven nodes, largest feature first:
    edu180, edu130, edu90, edu65, edu40, edu28, edu16, edu7, edu5, edu3,
    edu2. The two largest are {!Open_pdk} (mirroring GF180/SKY130); edu16
    and below require a track record. *)

val find_node : string -> node
(** @raise Not_found for an unknown name. *)

val open_nodes : unit -> node list
(** Nodes a university can use without NDAs. *)

val library : node -> cell list
(** The standard-cell library scaled to the node: inverter/buffer and the
    2-input gates in X1/X2/X4 drive strengths, 3-input and complex cells
    (AOI21, OAI21, MAJ3, MUX2) in X1, plus the flip-flop [DFF_X1].

    For the {!nodes} constants (what {!find_node} returns) the library is
    built once at module initialisation and shared read-only by every
    domain, so this is a lookup by physical equality over the eleven nodes.
    Any other node value, even a structurally equal copy, is rebuilt on
    every call. *)

val find_cell : node -> string -> cell
(** O(1) and allocation-free for the {!nodes} constants (a hash lookup in
    the shared table); a full library rebuild and linear scan for any other
    node value. Same cells either way.
    @raise Not_found for an unknown cell name. *)

val inverter : node -> cell
(** The X1 inverter (mapping inserts it for complemented literals). *)

val dff_cell : node -> cell

val combinational_cells : node -> cell list
(** {!library} without the flip-flop — the technology-mapping targets. *)

val wire_delay_ps : node -> length_um:float -> load_ff:float -> float
(** Elmore-style delay of a routed wire segment: R·(C_wire/2 + C_load). *)

val wire_cap_ff : node -> length_um:float -> float

val scale_from_180 : node -> float
(** [feature_nm /. 180.0] — the linear scaling factor used throughout. *)

val pp_node : Format.formatter -> node -> unit
