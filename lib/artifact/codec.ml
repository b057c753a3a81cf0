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

(* Every decoder fails with [Failure] on malformed input: the store
   treats that as corruption and quarantines the entry. Missing decode
   {e context} (an upstream netlist or placement that was never restored)
   is a different condition and surfaces as [None] from {!decode_state},
   which the memo treats as a plain miss. *)

let fail what = failwith ("artifact codec: " ^ what)

(* {2 Primitives}

   Ints are zigzag LEB128 varints (small magnitudes of either sign take
   one byte, [max_int] and [min_int] nine); floats are their IEEE-754
   bits, 8 bytes little-endian, so a replayed float is the stored one
   exactly; strings and sequences carry their length first. *)

let w_int b n =
  let rec go u =
    if u lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr u)
    else begin
      Buffer.add_char b (Char.unsafe_chr (u land 0x7f lor 0x80));
      go (u lsr 7)
    end
  in
  go ((n lsl 1) lxor (n asr 62))

let w_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)
let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_option w b = function
  | None -> w_bool b false
  | Some v ->
    w_bool b true;
    w b v

let w_list w b l =
  w_int b (List.length l);
  List.iter (w b) l

let w_array w b a =
  w_int b (Array.length a);
  Array.iter (w b) a

(* A reader over [s.[pos] .. s.[lim - 1]]. Every read checks what is
   left before it touches, or allocates for, the bytes it claims. *)
type reader = { s : string; mutable pos : int; lim : int }

let left r = r.lim - r.pos

let r_byte r =
  if r.pos >= r.lim then fail "truncated";
  let c = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  c

let r_int r =
  let rec go acc shift =
    let c = r_byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc
    else if shift >= 56 then fail "varint too long"
    else go acc (shift + 7)
  in
  let u = go 0 0 in
  (u lsr 1) lxor (-(u land 1))

let r_float r =
  if left r < 8 then fail "truncated";
  let f = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  f

let r_bool r =
  match r_byte r with 0 -> false | 1 -> true | _ -> fail "bad bool"

(* A sequence length, checked against the bytes left: each element takes
   at least [min_bytes], so a larger count cannot be honest. *)
let r_count ?(min_bytes = 1) r =
  let n = r_int r in
  if n < 0 || n > left r / min_bytes then fail "length past the end";
  n

let r_string r =
  let n = r_count r in
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let r_option rd r = if r_bool r then Some (rd r) else None

let r_list ?min_bytes rd r =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (rd r :: acc) in
  go (r_count ?min_bytes r) []

let r_ints r =
  let a = Array.make (r_count r) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- r_int r
  done;
  a

let r_floats r =
  let a = Array.create_float (r_count ~min_bytes:8 r) in
  for i = 0 to Array.length a - 1 do
    a.(i) <- r_float r
  done;
  a

(* Runs [rd] over all of [s.[0] .. s.[len - 1]]: trailing bytes are
   corruption too. *)
let read_all rd s ~len =
  let r = { s; pos = 0; lim = len } in
  let v = rd r in
  if r.pos <> len then fail "trailing bytes";
  v

(* {2 Netlist}

   One row per cell: kind, label, fanins. The display name is
   deliberately absent — content-addressed snapshots dedupe across
   structurally identical designs, and the restoring run supplies its own
   name. Mapped kinds carry name/arity/table inline, mirroring
   [Netlist.structural_digest]'s canonical form. *)

(* [plain_kinds.(c)] is the kind whose code is [c]; [Mapped] takes the
   next code and carries its cell inline. *)
let plain_kinds =
  Netlist.
    [|
      Input; Output; Const false; Const true; Buf; Not; And; Or; Xor; Nand; Nor; Xnor; Mux;
      Dff;
    |]

let mapped_code = Array.length plain_kinds

let w_kind b = function
  | Netlist.Input -> w_int b 0
  | Netlist.Output -> w_int b 1
  | Netlist.Const false -> w_int b 2
  | Netlist.Const true -> w_int b 3
  | Netlist.Buf -> w_int b 4
  | Netlist.Not -> w_int b 5
  | Netlist.And -> w_int b 6
  | Netlist.Or -> w_int b 7
  | Netlist.Xor -> w_int b 8
  | Netlist.Nand -> w_int b 9
  | Netlist.Nor -> w_int b 10
  | Netlist.Xnor -> w_int b 11
  | Netlist.Mux -> w_int b 12
  | Netlist.Dff -> w_int b 13
  | Netlist.Mapped m ->
    w_int b mapped_code;
    w_string b m.Netlist.cell_name;
    w_int b m.Netlist.arity;
    w_int b m.Netlist.table

let r_kind r =
  match r_int r with
  | c when c >= 0 && c < mapped_code -> plain_kinds.(c)
  | c when c = mapped_code ->
    let cell_name = r_string r in
    let arity = r_int r in
    let table = r_int r in
    Netlist.Mapped { Netlist.cell_name; arity; table }
  | c -> fail (Printf.sprintf "unknown cell kind %d" c)

let w_netlist b n =
  w_int b (Netlist.cell_count n);
  Netlist.iter_cells n (fun _ c ->
      w_kind b c.Netlist.kind;
      w_string b c.Netlist.label;
      w_array w_int b c.Netlist.fanins)

let r_netlist ~name r =
  (* a cell row takes at least three bytes: kind, label length, fanins *)
  let n = r_count ~min_bytes:3 r in
  let cells =
    Array.init n (fun _ ->
        let kind = r_kind r in
        let label = r_string r in
        { Netlist.kind; label; fanins = r_ints r })
  in
  match Netlist.restore ~name cells with
  | n -> n
  | exception Invalid_argument m -> fail m

(* {2 Kernel reports} *)

let w_synth_report b (r : Synth.report) =
  w_int b r.Synth.aig_nodes_initial;
  w_int b r.Synth.aig_nodes_optimized;
  w_int b r.Synth.aig_depth_initial;
  w_int b r.Synth.aig_depth_optimized;
  w_int b r.Synth.mapped_cells;
  w_int b r.Synth.inverters_added;
  w_float b r.Synth.mapped_area_um2;
  w_int b r.Synth.flip_flops

let r_synth_report r : Synth.report =
  let aig_nodes_initial = r_int r in
  let aig_nodes_optimized = r_int r in
  let aig_depth_initial = r_int r in
  let aig_depth_optimized = r_int r in
  let mapped_cells = r_int r in
  let inverters_added = r_int r in
  let mapped_area_um2 = r_float r in
  let flip_flops = r_int r in
  {
    Synth.aig_nodes_initial;
    aig_nodes_optimized;
    aig_depth_initial;
    aig_depth_optimized;
    mapped_cells;
    inverters_added;
    mapped_area_um2;
    flip_flops;
  }

let w_timing_report b (t : Timing.report) =
  w_float b t.Timing.clock_period_ps;
  w_float b t.Timing.wns_ps;
  w_float b t.Timing.tns_ps;
  w_float b t.Timing.max_frequency_mhz;
  w_list w_int b t.Timing.critical_path;
  w_float b t.Timing.critical_arrival_ps;
  w_int b t.Timing.endpoints;
  w_int b t.Timing.failing_endpoints;
  w_float b t.Timing.whs_ps;
  w_int b t.Timing.hold_failing_endpoints

let r_timing_report r : Timing.report =
  let clock_period_ps = r_float r in
  let wns_ps = r_float r in
  let tns_ps = r_float r in
  let max_frequency_mhz = r_float r in
  let critical_path = r_list r_int r in
  let critical_arrival_ps = r_float r in
  let endpoints = r_int r in
  let failing_endpoints = r_int r in
  let whs_ps = r_float r in
  let hold_failing_endpoints = r_int r in
  {
    Timing.clock_period_ps;
    wns_ps;
    tns_ps;
    max_frequency_mhz;
    critical_path;
    critical_arrival_ps;
    endpoints;
    failing_endpoints;
    whs_ps;
    hold_failing_endpoints;
  }

let w_power_report b (p : Power.report) =
  w_float b p.Power.dynamic_uw;
  w_float b p.Power.leakage_uw;
  w_float b p.Power.clock_uw;
  w_float b p.Power.total_uw;
  w_float b p.Power.mean_activity;
  w_int b p.Power.cycles_simulated

let r_power_report r : Power.report =
  let dynamic_uw = r_float r in
  let leakage_uw = r_float r in
  let clock_uw = r_float r in
  let total_uw = r_float r in
  let mean_activity = r_float r in
  let cycles_simulated = r_int r in
  { Power.dynamic_uw; leakage_uw; clock_uw; total_uw; mean_activity; cycles_simulated }

let w_violation b = function
  | Drc.Placement_illegal s ->
    w_int b 0;
    w_string b s
  | Drc.Congestion_overflow { tiles_over; worst_ratio } ->
    w_int b 1;
    w_int b tiles_over;
    w_float b worst_ratio
  | Drc.Net_disconnected id ->
    w_int b 2;
    w_int b id
  | Drc.Netlist_unsound s ->
    w_int b 3;
    w_string b s
  | Drc.Net_too_long { driver; length_um; limit_um } ->
    w_int b 4;
    w_int b driver;
    w_float b length_um;
    w_float b limit_um

let r_violation r =
  match r_int r with
  | 0 -> Drc.Placement_illegal (r_string r)
  | 1 ->
    let tiles_over = r_int r in
    Drc.Congestion_overflow { tiles_over; worst_ratio = r_float r }
  | 2 -> Drc.Net_disconnected (r_int r)
  | 3 -> Drc.Netlist_unsound (r_string r)
  | 4 ->
    let driver = r_int r in
    let length_um = r_float r in
    Drc.Net_too_long { driver; length_um; limit_um = r_float r }
  | c -> fail (Printf.sprintf "unknown violation %d" c)

let w_drc_report b (d : Drc.report) =
  w_list w_violation b d.Drc.violations;
  w_int b d.Drc.checks_run;
  w_bool b d.Drc.clean

let r_drc_report r : Drc.report =
  let violations = r_list ~min_bytes:2 r_violation r in
  let checks_run = r_int r in
  { Drc.violations; checks_run; clean = r_bool r }

(* {2 Geometry snapshots} *)

let w_place b p =
  let s = Place.snapshot p in
  w_float b s.Place.snap_die_w;
  w_int b s.Place.snap_rows;
  w_array w_float b s.Place.snap_xs;
  w_array w_float b s.Place.snap_ys

let r_place ~netlist ~node r =
  let snap_die_w = r_float r in
  let snap_rows = r_int r in
  let snap_xs = r_floats r in
  let s = { Place.snap_die_w; snap_rows; snap_xs; snap_ys = r_floats r } in
  match Place.restore netlist ~node s with
  | p -> p
  | exception Invalid_argument m -> fail m

let rec w_tree b = function
  | Cts.Leaf pts ->
    w_int b 0;
    w_list
      (fun b (id, x, y) ->
        w_int b id;
        w_float b x;
        w_float b y)
      b pts
  | Cts.Branch { x; y; children } ->
    w_int b 1;
    w_float b x;
    w_float b y;
    w_list w_tree b children

let rec r_tree r =
  match r_int r with
  | 0 ->
    Cts.Leaf
      (r_list ~min_bytes:17
         (fun r ->
           let id = r_int r in
           let x = r_float r in
           (id, x, r_float r))
         r)
  | 1 ->
    let x = r_float r in
    let y = r_float r in
    Cts.Branch { x; y; children = r_list ~min_bytes:2 r_tree r }
  | c -> fail (Printf.sprintf "unknown clock tree node %d" c)

let w_cts b c =
  let s = Cts.snapshot c in
  w_option w_tree b s.Cts.cs_root;
  w_float b s.Cts.cs_root_x;
  w_float b s.Cts.cs_root_y;
  w_int b s.Cts.cs_sinks;
  w_int b s.Cts.cs_buffers;
  w_int b s.Cts.cs_depth;
  w_float b s.Cts.cs_wirelength;
  w_float b s.Cts.cs_cap;
  w_list
    (fun b (id, d) ->
      w_int b id;
      w_float b d)
    b s.Cts.cs_delays

let r_cts ~node r =
  let cs_root = r_option r_tree r in
  let cs_root_x = r_float r in
  let cs_root_y = r_float r in
  let cs_sinks = r_int r in
  let cs_buffers = r_int r in
  let cs_depth = r_int r in
  let cs_wirelength = r_float r in
  let cs_cap = r_float r in
  let cs_delays =
    r_list ~min_bytes:9
      (fun r ->
        let id = r_int r in
        (id, r_float r))
      r
  in
  Cts.restore ~node
    {
      Cts.cs_root;
      cs_root_x;
      cs_root_y;
      cs_sinks;
      cs_buffers;
      cs_depth;
      cs_wirelength;
      cs_cap;
      cs_delays;
    }

let w_route_snapshot b (s : Route.snapshot) =
  w_int b s.Route.rs_nx;
  w_int b s.Route.rs_ny;
  w_float b s.Route.rs_tile;
  w_int b s.Route.rs_capacity;
  w_array w_int b s.Route.rs_usage;
  w_list
    (fun b (n : Route.net_snapshot) ->
      w_int b n.Route.rs_driver;
      w_list w_int b n.Route.rs_sinks;
      w_list w_int b n.Route.rs_edges;
      w_list
        (fun b (x, y) ->
          w_int b x;
          w_int b y)
        b n.Route.rs_tiles;
      w_int b n.Route.rs_vias)
    b s.Route.rs_nets

let r_net r : Route.net_snapshot =
  let rs_driver = r_int r in
  let rs_sinks = r_list r_int r in
  let rs_edges = r_list r_int r in
  let rs_tiles =
    r_list ~min_bytes:2
      (fun r ->
        let x = r_int r in
        (x, r_int r))
      r
  in
  { Route.rs_driver; rs_sinks; rs_edges; rs_tiles; rs_vias = r_int r }

let r_route ~placement r =
  let rs_nx = r_int r in
  let rs_ny = r_int r in
  let rs_tile = r_float r in
  let rs_capacity = r_int r in
  let rs_usage = r_ints r in
  (* a net takes at least five bytes: driver, three lengths, vias *)
  let rs_nets = r_list ~min_bytes:5 r_net r in
  let s = { Route.rs_nx; rs_ny; rs_tile; rs_capacity; rs_usage; rs_nets } in
  match Route.restore placement s with
  | r -> r
  | exception Invalid_argument m -> fail m

let encode_route s =
  let b = Buffer.create 1024 in
  w_route_snapshot b s;
  Buffer.contents b

(* {2 Step state} *)

type ctx = {
  design_name : string;
  node : Pdk.node;
  netlist : Netlist.t option;
  placement : Place.t option;
}

let encode_state st =
  let b = Buffer.create 1024 in
  let tag =
    match st with
    | Flow.S_synth (n, rep) ->
      w_netlist b n;
      w_synth_report b rep;
      "synth"
    | Flow.S_netlist n ->
      w_netlist b n;
      "netlist"
    | Flow.S_place p ->
      w_place b p;
      "place"
    | Flow.S_cts c ->
      w_cts b c;
      "cts"
    | Flow.S_route rt ->
      w_route_snapshot b (Route.snapshot rt);
      "route"
    | Flow.S_timing t ->
      w_timing_report b t;
      "timing"
    | Flow.S_power p ->
      w_power_report b p;
      "power"
    | Flow.S_drc d ->
      w_drc_report b d;
      "drc"
    | Flow.S_not_stored -> invalid_arg "Codec.encode_state: S_not_stored"
  in
  (tag, Buffer.contents b)

let decode_state ctx ~tag s =
  let decode rd = Some (read_all rd s ~len:(String.length s)) in
  match tag with
  | "synth" ->
    decode (fun r ->
        let n = r_netlist ~name:ctx.design_name r in
        Flow.S_synth (n, r_synth_report r))
  | "netlist" -> decode (fun r -> Flow.S_netlist (r_netlist ~name:ctx.design_name r))
  | "place" -> (
    match ctx.netlist with
    | None -> None
    | Some netlist -> decode (fun r -> Flow.S_place (r_place ~netlist ~node:ctx.node r)))
  | "cts" -> decode (fun r -> Flow.S_cts (r_cts ~node:ctx.node r))
  | "route" -> (
    match ctx.placement with
    | None -> None
    | Some placement -> decode (fun r -> Flow.S_route (r_route ~placement r)))
  | "timing" -> decode (fun r -> Flow.S_timing (r_timing_report r))
  | "power" -> decode (fun r -> Flow.S_power (r_power_report r))
  | "drc" -> decode (fun r -> Flow.S_drc (r_drc_report r))
  | t -> fail ("unknown state tag " ^ t)

(* {2 Store entries} *)

type entry = {
  key : string;
  step : string;
  tag : string;
  state : string;
  report : Flow.step_report;
  exec : Flow.step_exec;
}

(* The first byte names the entry layout; the key already names the
   snapshot semantics ({!Stepkey.version}). *)
let layout = 2

let w_entry b e =
  Buffer.add_char b (Char.chr layout);
  w_string b e.key;
  w_string b e.step;
  w_string b e.tag;
  w_string b e.report.Flow.step_name;
  w_string b e.report.Flow.detail;
  w_option w_float b e.report.Flow.wall_ms;
  w_string b e.exec.Flow.step;
  w_int b e.exec.Flow.attempts;
  w_int b e.exec.Flow.rung;
  w_float b e.exec.Flow.sim_backoff_ms;
  w_option w_string b e.exec.Flow.step_failure;
  w_string b e.state

let r_entry r =
  if r_byte r <> layout then fail "unknown entry layout";
  let key = r_string r in
  let step = r_string r in
  let tag = r_string r in
  let step_name = r_string r in
  let detail = r_string r in
  let wall_ms = r_option r_float r in
  let exec_step = r_string r in
  let attempts = r_int r in
  let rung = r_int r in
  let sim_backoff_ms = r_float r in
  let step_failure = r_option r_string r in
  {
    key;
    step;
    tag;
    report = { Flow.step_name; detail; wall_ms };
    exec = { Flow.step = exec_step; attempts; rung; sim_backoff_ms; step_failure };
    state = r_string r;
  }

let encode_entry e =
  let b = Buffer.create (String.length e.state + 128) in
  w_entry b e;
  Buffer.contents b

let decode_entry s ~len =
  if len < 0 || len > String.length s then invalid_arg "Codec.decode_entry: len";
  read_all r_entry s ~len
