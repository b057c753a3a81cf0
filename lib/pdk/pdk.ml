type access = Open_pdk | Nda | Nda_with_track_record

type node = {
  node_name : string;
  feature_nm : float;
  metal_layers : int;
  track_pitch_um : float;
  row_height_um : float;
  wire_r_ohm_per_um : float;
  wire_c_ff_per_um : float;
  voltage : float;
  access : access;
  mpw_cost_eur_per_mm2 : float;
  min_mpw_area_mm2 : float;
  full_mask_cost_eur : float;
  turnaround_weeks : float;
}

type cell = {
  cell_name : string;
  arity : int;
  table : int;
  sequential : bool;
  area : float;
  intrinsic_ps : float;
  load_ps_per_ff : float;
  input_cap_ff : float;
  leakage_nw : float;
}

(* Node table. Geometry scales with feature size; MPW pricing and mask NRE
   follow the steep published cost curves (Europractice price lists for the
   large nodes, industry NRE estimates for the advanced ones); turnaround
   grows with process complexity. *)
let make_node node_name feature_nm metal_layers access mpw_cost_eur_per_mm2
    full_mask_cost_eur turnaround_weeks =
  let s = feature_nm /. 180.0 in
  {
    node_name;
    feature_nm;
    metal_layers;
    track_pitch_um = 0.56 *. s +. 0.04;
    row_height_um = 2.72 *. s +. 0.2;
    (* wires get more resistive and relatively more capacitive as they
       shrink: classic reverse scaling *)
    wire_r_ohm_per_um = 0.08 /. s;
    wire_c_ff_per_um = 0.18 +. (0.04 *. (1.0 -. s));
    voltage = 0.55 +. (1.25 *. s);
    access;
    mpw_cost_eur_per_mm2;
    min_mpw_area_mm2 = (if feature_nm >= 90.0 then 1.0 else 0.5);
    full_mask_cost_eur;
    turnaround_weeks;
  }

let nodes =
  [
    make_node "edu180" 180.0 6 Open_pdk 650.0 90_000.0 14.0;
    make_node "edu130" 130.0 6 Open_pdk 1_100.0 150_000.0 16.0;
    make_node "edu90" 90.0 7 Nda 2_600.0 400_000.0 18.0;
    make_node "edu65" 65.0 8 Nda 4_600.0 900_000.0 20.0;
    make_node "edu40" 40.0 9 Nda 8_800.0 1_800_000.0 22.0;
    make_node "edu28" 28.0 9 Nda 14_000.0 3_000_000.0 24.0;
    make_node "edu16" 16.0 10 Nda_with_track_record 32_000.0 9_000_000.0 28.0;
    make_node "edu7" 7.0 12 Nda_with_track_record 90_000.0 25_000_000.0 32.0;
    make_node "edu5" 5.0 13 Nda_with_track_record 150_000.0 40_000_000.0 36.0;
    make_node "edu3" 3.0 14 Nda_with_track_record 260_000.0 60_000_000.0 40.0;
    make_node "edu2" 2.0 15 Nda_with_track_record 400_000.0 90_000_000.0 44.0;
  ]

let find_node name =
  match List.find_opt (fun n -> n.node_name = name) nodes with
  | Some n -> n
  | None -> raise Not_found

let open_nodes () = List.filter (fun n -> n.access = Open_pdk) nodes

let scale_from_180 node = node.feature_nm /. 180.0

(* Leakage scaling: mild above 90 nm, steep below (thin oxides); expressed
   relative to the 180 nm anchor. *)
let leakage_factor node =
  let f = node.feature_nm in
  if f >= 90.0 then 180.0 /. f else (180.0 /. f) ** 1.6

(* {1 Cell templates at the 180 nm anchor}

   Truth tables are derived from executable specifications so they cannot
   drift from the documentation. Pin order is the order of the list passed
   to the spec function; bit [i] of the table is the output when pin [j]
   carries bit [j] of [i]. *)

let table_of_function arity f =
  let t = ref 0 in
  for i = 0 to (1 lsl arity) - 1 do
    let pins = Array.init arity (fun j -> (i lsr j) land 1 = 1) in
    if f pins then t := !t lor (1 lsl i)
  done;
  !t

type template = {
  t_name : string;
  t_arity : int;
  t_fn : bool array -> bool;
  t_area : float; (* µm² at 180 nm *)
  t_intrinsic : float; (* ps at 180 nm *)
  t_load : float; (* ps/fF at 180 nm, X1 drive *)
  t_cap : float; (* fF per input at 180 nm *)
  t_leak : float; (* nW at 180 nm *)
  t_drives : int list; (* drive strengths to emit *)
}

let templates =
  [
    {
      t_name = "INV";
      t_arity = 1;
      t_fn = (fun p -> not p.(0));
      t_area = 7.0;
      t_intrinsic = 22.0;
      t_load = 9.0;
      t_cap = 2.0;
      t_leak = 0.9;
      t_drives = [ 1; 2; 4 ];
    };
    {
      t_name = "BUF";
      t_arity = 1;
      t_fn = (fun p -> p.(0));
      t_area = 10.0;
      t_intrinsic = 45.0;
      t_load = 8.0;
      t_cap = 2.0;
      t_leak = 1.1;
      t_drives = [ 1; 2; 4 ];
    };
    {
      t_name = "NAND2";
      t_arity = 2;
      t_fn = (fun p -> not (p.(0) && p.(1)));
      t_area = 10.0;
      t_intrinsic = 30.0;
      t_load = 10.0;
      t_cap = 2.2;
      t_leak = 1.3;
      t_drives = [ 1; 2; 4 ];
    };
    {
      t_name = "NOR2";
      t_arity = 2;
      t_fn = (fun p -> not (p.(0) || p.(1)));
      t_area = 10.0;
      t_intrinsic = 34.0;
      t_load = 11.0;
      t_cap = 2.2;
      t_leak = 1.3;
      t_drives = [ 1; 2; 4 ];
    };
    {
      t_name = "AND2";
      t_arity = 2;
      t_fn = (fun p -> p.(0) && p.(1));
      t_area = 13.0;
      t_intrinsic = 52.0;
      t_load = 9.0;
      t_cap = 2.1;
      t_leak = 1.6;
      t_drives = [ 1; 2 ];
    };
    {
      t_name = "OR2";
      t_arity = 2;
      t_fn = (fun p -> p.(0) || p.(1));
      t_area = 13.0;
      t_intrinsic = 55.0;
      t_load = 9.0;
      t_cap = 2.1;
      t_leak = 1.6;
      t_drives = [ 1; 2 ];
    };
    {
      t_name = "XOR2";
      t_arity = 2;
      t_fn = (fun p -> p.(0) <> p.(1));
      t_area = 20.0;
      t_intrinsic = 70.0;
      t_load = 11.0;
      t_cap = 3.0;
      t_leak = 2.2;
      t_drives = [ 1; 2 ];
    };
    {
      t_name = "XNOR2";
      t_arity = 2;
      t_fn = (fun p -> p.(0) = p.(1));
      t_area = 20.0;
      t_intrinsic = 72.0;
      t_load = 11.0;
      t_cap = 3.0;
      t_leak = 2.2;
      t_drives = [ 1 ];
    };
    {
      t_name = "NAND3";
      t_arity = 3;
      t_fn = (fun p -> not (p.(0) && p.(1) && p.(2)));
      t_area = 13.0;
      t_intrinsic = 42.0;
      t_load = 12.0;
      t_cap = 2.4;
      t_leak = 1.8;
      t_drives = [ 1; 2 ];
    };
    {
      t_name = "NOR3";
      t_arity = 3;
      t_fn = (fun p -> not (p.(0) || p.(1) || p.(2)));
      t_area = 13.0;
      t_intrinsic = 50.0;
      t_load = 13.0;
      t_cap = 2.4;
      t_leak = 1.8;
      t_drives = [ 1 ];
    };
    {
      t_name = "AND3";
      t_arity = 3;
      t_fn = (fun p -> p.(0) && p.(1) && p.(2));
      t_area = 16.0;
      t_intrinsic = 62.0;
      t_load = 10.0;
      t_cap = 2.3;
      t_leak = 2.0;
      t_drives = [ 1 ];
    };
    {
      t_name = "OR3";
      t_arity = 3;
      t_fn = (fun p -> p.(0) || p.(1) || p.(2));
      t_area = 16.0;
      t_intrinsic = 66.0;
      t_load = 10.0;
      t_cap = 2.3;
      t_leak = 2.0;
      t_drives = [ 1 ];
    };
    {
      (* pins: a, b, c; output = !((a·b) + c) *)
      t_name = "AOI21";
      t_arity = 3;
      t_fn = (fun p -> not ((p.(0) && p.(1)) || p.(2)));
      t_area = 12.0;
      t_intrinsic = 38.0;
      t_load = 12.0;
      t_cap = 2.3;
      t_leak = 1.5;
      t_drives = [ 1; 2 ];
    };
    {
      (* pins: a, b, c; output = !((a + b)·c) *)
      t_name = "OAI21";
      t_arity = 3;
      t_fn = (fun p -> not ((p.(0) || p.(1)) && p.(2)));
      t_area = 12.0;
      t_intrinsic = 40.0;
      t_load = 12.0;
      t_cap = 2.3;
      t_leak = 1.5;
      t_drives = [ 1; 2 ];
    };
    {
      (* pins: sel, a, b; output = sel ? b : a — matches Netlist.Mux *)
      t_name = "MUX2";
      t_arity = 3;
      t_fn = (fun p -> if p.(0) then p.(2) else p.(1));
      t_area = 23.0;
      t_intrinsic = 60.0;
      t_load = 10.0;
      t_cap = 2.8;
      t_leak = 2.4;
      t_drives = [ 1 ];
    };
    {
      t_name = "MAJ3";
      t_arity = 3;
      t_fn =
        (fun p ->
          let count = List.length (List.filter (fun x -> x) (Array.to_list p)) in
          count >= 2);
      t_area = 25.0;
      t_intrinsic = 75.0;
      t_load = 11.0;
      t_cap = 3.1;
      t_leak = 2.6;
      t_drives = [ 1 ];
    };
  ]

let dff_template =
  {
    t_name = "DFF";
    t_arity = 1;
    t_fn = (fun p -> p.(0));
    t_area = 45.0;
    t_intrinsic = 120.0; (* clk-to-Q *)
    t_load = 9.0;
    t_cap = 3.4;
    t_leak = 4.5;
    t_drives = [ 1 ];
  }

(* Larger drives: wider transistors — more area and pin cap, the same
   logical function, and a proportionally smaller delay-vs-load slope. *)
let instantiate node template drive =
  let s = scale_from_180 node in
  let df = float_of_int drive in
  let drive_area = 1.0 +. (0.55 *. (df -. 1.0)) in
  {
    cell_name = Printf.sprintf "%s_X%d" template.t_name drive;
    arity = template.t_arity;
    table = table_of_function template.t_arity template.t_fn;
    sequential = template == dff_template;
    area = template.t_area *. s *. s *. drive_area;
    intrinsic_ps = template.t_intrinsic *. s;
    load_ps_per_ff = template.t_load *. s /. df;
    input_cap_ff = template.t_cap *. (0.3 +. (0.7 *. s)) *. (1.0 +. (0.3 *. (df -. 1.0)));
    leakage_nw = template.t_leak *. leakage_factor node *. df;
  }

let build_library node =
  let combinational =
    List.concat_map
      (fun t -> List.map (fun drive -> instantiate node t drive) t.t_drives)
      templates
  in
  combinational @ [ instantiate node dff_template 1 ]

(* Cell tables of the [nodes] constants, built once at module initialisation
   and never mutated afterwards, so every domain can read them without a
   lock. A node a caller builds itself is not in here: it is rebuilt per call. *)
type tables = { cells : cell list; by_name : (string, cell) Hashtbl.t }

let tables =
  List.map
    (fun node ->
      let cells = build_library node in
      let by_name = Hashtbl.create 64 in
      List.iter (fun c -> Hashtbl.replace by_name c.cell_name c) cells;
      (node, { cells; by_name }))
    nodes

(* [List.assq] rather than [List.assq_opt]: the hit path must not allocate. *)
let library node =
  match List.assq node tables with
  | t -> t.cells
  | exception Not_found -> build_library node

let find_cell node name =
  match List.assq node tables with
  | t -> Hashtbl.find t.by_name name
  | exception Not_found -> List.find (fun c -> c.cell_name = name) (build_library node)

let inverter node = find_cell node "INV_X1"

let dff_cell node = find_cell node "DFF_X1"

let combinational_cells node = List.filter (fun c -> not c.sequential) (library node)

let wire_cap_ff node ~length_um = node.wire_c_ff_per_um *. length_um

let wire_delay_ps node ~length_um ~load_ff =
  let r = node.wire_r_ohm_per_um *. length_um in
  let c_wire = wire_cap_ff node ~length_um in
  (* Elmore: R·(C_wire/2 + C_load), fF·Ω = 1e-3 ps *)
  r *. ((c_wire /. 2.0) +. load_ff) *. 1e-3

let pp_node ppf n =
  Format.fprintf ppf "%s (%g nm, %d metals, %s, MPW %.0f EUR/mm2, %g weeks)" n.node_name
    n.feature_nm n.metal_layers
    (match n.access with
    | Open_pdk -> "open"
    | Nda -> "NDA"
    | Nda_with_track_record -> "NDA+track-record")
    n.mpw_cost_eur_per_mm2 n.turnaround_weeks
