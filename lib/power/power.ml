module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Sim = Educhip_sim.Sim
module Rng = Educhip_util.Rng

type report = {
  dynamic_uw : float;
  leakage_uw : float;
  clock_uw : float;
  total_uw : float;
  mean_activity : float;
  cycles_simulated : int;
}

let input_cap node = function
  | Netlist.Mapped m -> (Pdk.find_cell node m.Netlist.cell_name).Pdk.input_cap_ff
  | Netlist.Dff -> (Pdk.dff_cell node).Pdk.input_cap_ff
  | Netlist.Buf -> (Pdk.find_cell node "BUF_X1").Pdk.input_cap_ff
  | Netlist.Not -> (Pdk.find_cell node "INV_X1").Pdk.input_cap_ff
  | Netlist.And | Netlist.Nand -> (Pdk.find_cell node "NAND2_X1").Pdk.input_cap_ff
  | Netlist.Or | Netlist.Nor -> (Pdk.find_cell node "NOR2_X1").Pdk.input_cap_ff
  | Netlist.Xor | Netlist.Xnor -> (Pdk.find_cell node "XOR2_X1").Pdk.input_cap_ff
  | Netlist.Mux -> (Pdk.find_cell node "MUX2_X1").Pdk.input_cap_ff
  | Netlist.Output -> 4.0 (* pad *)
  | Netlist.Input | Netlist.Const _ -> 0.0

let leakage_nw node = function
  | Netlist.Mapped m -> (Pdk.find_cell node m.Netlist.cell_name).Pdk.leakage_nw
  | Netlist.Dff -> (Pdk.dff_cell node).Pdk.leakage_nw
  | Netlist.Buf -> (Pdk.find_cell node "BUF_X1").Pdk.leakage_nw
  | Netlist.Not -> (Pdk.find_cell node "INV_X1").Pdk.leakage_nw
  | Netlist.And -> (Pdk.find_cell node "AND2_X1").Pdk.leakage_nw
  | Netlist.Nand -> (Pdk.find_cell node "NAND2_X1").Pdk.leakage_nw
  | Netlist.Or -> (Pdk.find_cell node "OR2_X1").Pdk.leakage_nw
  | Netlist.Nor -> (Pdk.find_cell node "NOR2_X1").Pdk.leakage_nw
  | Netlist.Xor -> (Pdk.find_cell node "XOR2_X1").Pdk.leakage_nw
  | Netlist.Xnor -> (Pdk.find_cell node "XNOR2_X1").Pdk.leakage_nw
  | Netlist.Mux -> (Pdk.find_cell node "MUX2_X1").Pdk.leakage_nw
  | Netlist.Input | Netlist.Output | Netlist.Const _ -> 0.0

let estimate netlist ~node ~clock_mhz ?(wire_length_of_net = fun _ -> 0.0) ?(cycles = 200)
    ?(seed = 1) ?clock_tree_cap_ff () =
  if clock_mhz <= 0.0 then invalid_arg "Power.estimate: clock must be positive";
  if cycles <= 0 then invalid_arg "Power.estimate: cycles must be positive";
  let n = Netlist.cell_count netlist in
  (* per-net load capacitance *)
  let cap = Array.make n 0.0 in
  Netlist.iter_cells netlist (fun _ c ->
      let pin = input_cap node c.Netlist.kind in
      Array.iter (fun f -> cap.(f) <- cap.(f) +. pin) c.Netlist.fanins);
  for id = 0 to n - 1 do
    cap.(id) <- cap.(id) +. Pdk.wire_cap_ff node ~length_um:(wire_length_of_net id)
  done;
  (* switching activity from seeded random simulation *)
  let sim = Sim.create netlist in
  let rng = Rng.create ~seed in
  let inputs = Netlist.inputs netlist in
  let toggles = Array.make n 0 in
  let previous = Array.make n false in
  let dffs = List.length (Netlist.dffs netlist) in
  Sim.reset sim;
  for _ = 1 to cycles do
    List.iter (fun id -> Sim.set_input sim id (Rng.bool rng)) inputs;
    (* Sample the nets after the clock edge. Without flip-flops the edge
       changes nothing, so one sweep gives the same words as two. *)
    if dffs > 0 then Sim.step sim;
    Sim.eval sim;
    for id = 0 to n - 1 do
      let v = Sim.value sim id in
      if v <> previous.(id) then toggles.(id) <- toggles.(id) + 1;
      previous.(id) <- v
    done
  done;
  let v = node.Pdk.voltage in
  let f_hz = clock_mhz *. 1e6 in
  (* fF · V² · Hz = 1e-15 W = 1e-9 µW *)
  let to_uw x = x *. 1e-9 in
  let dynamic = ref 0.0 in
  let activity_sum = ref 0.0 in
  let net_count = ref 0 in
  for id = 0 to n - 1 do
    let alpha = float_of_int toggles.(id) /. float_of_int cycles in
    if cap.(id) > 0.0 then begin
      incr net_count;
      activity_sum := !activity_sum +. alpha;
      dynamic := !dynamic +. (0.5 *. alpha *. cap.(id) *. v *. v *. f_hz)
    end
  done;
  let leakage = ref 0.0 in
  Netlist.iter_cells netlist (fun _ c ->
      leakage := !leakage +. leakage_nw node c.Netlist.kind);
  let dff_clk_cap = (Pdk.dff_cell node).Pdk.input_cap_ff in
  (* clock toggles twice per cycle into every sink plus ~5 µm of tree wire *)
  let clock_cap =
    match clock_tree_cap_ff with
    | Some cap -> cap
    | None -> float_of_int dffs *. (dff_clk_cap +. Pdk.wire_cap_ff node ~length_um:5.0)
  in
  let clock = clock_cap *. v *. v *. f_hz in
  let dynamic_uw = to_uw !dynamic in
  let clock_uw = to_uw clock in
  let leakage_uw = !leakage /. 1000.0 in
  {
    dynamic_uw;
    leakage_uw;
    clock_uw;
    total_uw = dynamic_uw +. leakage_uw +. clock_uw;
    mean_activity = (if !net_count = 0 then 0.0 else !activity_sum /. float_of_int !net_count);
    cycles_simulated = cycles;
  }

type gating_report = {
  total_flops : int;
  gateable_flops : int;
  mux_cells_removable : int;
  clock_power_saving_uw : float;
}

(* A flop is gateable when its D net is a 2:1 selection between its own Q
   and new data — primitive [Mux] with the flop's Q on a data pin, or a
   mapped [MUX2] cell likewise. *)
let clock_gating netlist ~node ~clock_mhz ?(enable_duty = 0.25) () =
  if clock_mhz <= 0.0 then invalid_arg "Power.clock_gating: clock must be positive";
  if enable_duty < 0.0 || enable_duty > 1.0 then
    invalid_arg "Power.clock_gating: enable_duty must be in [0,1]";
  let recirculates dff d =
    match Netlist.kind netlist d with
    | Netlist.Mux ->
      let f = Netlist.fanins netlist d in
      f.(1) = dff || f.(2) = dff
    | Netlist.Mapped m when m.Netlist.cell_name = "MUX2_X1" ->
      let f = Netlist.fanins netlist d in
      f.(1) = dff || f.(2) = dff
    | _ -> false
  in
  let dffs = Netlist.dffs netlist in
  let gateable =
    List.filter
      (fun dff ->
        let f = Netlist.fanins netlist dff in
        Array.length f = 1 && recirculates dff f.(0))
      dffs
  in
  let v = node.Pdk.voltage in
  let f_hz = clock_mhz *. 1e6 in
  let dff_clk_cap = (Pdk.dff_cell node).Pdk.input_cap_ff in
  let per_flop_clock_uw = dff_clk_cap *. v *. v *. f_hz *. 1e-9 in
  {
    total_flops = List.length dffs;
    gateable_flops = List.length gateable;
    mux_cells_removable = List.length gateable;
    clock_power_saving_uw =
      float_of_int (List.length gateable) *. per_flop_clock_uw *. (1.0 -. enable_duty);
  }

let pp_report ppf r =
  Format.fprintf ppf
    "power: %.2f uW total (%.2f dynamic, %.2f clock, %.2f leakage), mean activity %.3f over %d cycles"
    r.total_uw r.dynamic_uw r.clock_uw r.leakage_uw r.mean_activity r.cycles_simulated
