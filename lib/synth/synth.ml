module Netlist = Educhip_netlist.Netlist
module Aig = Educhip_aig.Aig
module Pdk = Educhip_pdk.Pdk
module Obs = Educhip_obs.Obs
module Fault = Educhip_fault.Fault

let metric_names =
  [ "synth.aig_rewrites"; "synth.cells_upsized"; "synth.buffers_inserted" ]

let fault_sites = [ "synth.map" ]

type objective = Area | Delay

type options = {
  optimization_passes : int;
  cut_k : int;
  cuts_per_node : int;
  objective : objective;
}

let default_options =
  { optimization_passes = 2; cut_k = 4; cuts_per_node = 8; objective = Area }

let high_effort_options =
  { optimization_passes = 4; cut_k = 4; cuts_per_node = 16; objective = Delay }

let low_effort_options =
  { optimization_passes = 1; cut_k = 3; cuts_per_node = 4; objective = Area }

type report = {
  aig_nodes_initial : int;
  aig_nodes_optimized : int;
  aig_depth_initial : int;
  aig_depth_optimized : int;
  mapped_cells : int;
  inverters_added : int;
  mapped_area_um2 : float;
  flip_flops : int;
}

let optimize seq ~passes =
  let rec go seq n =
    if n = 0 then seq
    else if not (Obs.enabled ()) then go (Aig.balance (Aig.rewrite seq)) (n - 1)
    else begin
      (* per-pass telemetry: the node-count reduction is the number of
         rewrite/balance substitutions that stuck *)
      let before = Aig.and_count seq.Aig.aig in
      let optimized =
        Obs.with_span "synth.pass"
          ~attrs:[ ("nodes_in", Obs.Int before) ]
          (fun () ->
            let optimized = Aig.balance (Aig.rewrite seq) in
            Obs.set_attr "nodes_out" (Obs.Int (Aig.and_count optimized.Aig.aig));
            optimized)
      in
      Obs.add_counter "synth.aig_rewrites"
        (max 0 (before - Aig.and_count optimized.Aig.aig));
      go optimized (n - 1)
    end
  in
  go (Aig.extract_cone seq) passes

(* {1 Boolean matching}

   A library cell implements a cut when some pin permutation and some set
   of pin inversions makes the cell's function equal to the cut's truth
   table over the cut leaves (in sorted-leaf order). Matches are
   precomputed per node technology into a table keyed by (arity, table). *)

type match_info = {
  m_cell : Pdk.cell;
  m_pin_leaf : int array;  (** cell pin j connects to cut leaf [m_pin_leaf.(j)] *)
  m_pin_inverted : bool array;
  m_inversions : int;
}

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

(* Truth table over leaf variables of the cell applied through a pin
   assignment: pin j reads leaf sigma.(j), inverted when ph.(j). *)
let assigned_table cell sigma ph n_leaves =
  let out = ref 0 in
  for m = 0 to (1 lsl n_leaves) - 1 do
    let pin_index = ref 0 in
    for j = 0 to cell.Pdk.arity - 1 do
      let v = (m lsr sigma.(j)) land 1 = 1 in
      let v = if ph.(j) then not v else v in
      if v then pin_index := !pin_index lor (1 lsl j)
    done;
    if (cell.Pdk.table lsr !pin_index) land 1 = 1 then out := !out lor (1 lsl m)
  done;
  !out

let build_match_table node =
  let table = Hashtbl.create 512 in
  let cells = Pdk.combinational_cells node in
  (* pin assignments in [permutations] order and pin phases indexed by
     their bits, per arity, shared by every match of this table *)
  let max_arity = List.fold_left (fun acc c -> max acc c.Pdk.arity) 0 cells in
  let sigmas =
    Array.init (max_arity + 1) (fun n ->
        List.map Array.of_list (permutations (List.init n (fun i -> i))))
  in
  let phases =
    Array.init (max_arity + 1) (fun n ->
        Array.init (1 lsl n) (fun bits -> Array.init n (fun j -> (bits lsr j) land 1 = 1)))
  in
  let inv_area = (Pdk.inverter node).Pdk.area in
  let cost cell inversions = cell.Pdk.area +. (float_of_int inversions *. inv_area) in
  List.iter
    (fun cell ->
      let n = cell.Pdk.arity in
      List.iter
        (fun sigma ->
          for phase_bits = 0 to (1 lsl n) - 1 do
            let ph = phases.(n).(phase_bits) in
            let inversions = Array.fold_left (fun a p -> if p then a + 1 else a) 0 ph in
            let key = (n, assigned_table cell sigma ph n) in
            match Hashtbl.find_opt table key with
            | Some m when not (cost cell inversions < cost m.m_cell m.m_inversions) -> ()
            | Some _ | None ->
              Hashtbl.replace table key
                { m_cell = cell; m_pin_leaf = sigma; m_pin_inverted = ph; m_inversions = inversions }
          done)
        sigmas.(n))
    cells;
  table

(* Match tables of the open-PDK nodes (the default node [edu130] among
   them), built once at module initialisation like [Pdk]'s cell tables
   and never mutated afterwards, so every domain reads them without a
   lock. Every process that links this module pays for them at start-up,
   so the other nodes are left out: their tables, like those of a node a
   caller builds itself, are built per call. *)
let match_tables =
  List.map (fun node -> (node, build_match_table node)) (Pdk.open_nodes ())

let match_table node =
  match List.assq node match_tables with
  | t -> t
  | exception Not_found -> build_match_table node

(* {1 Covering} *)

type choice = {
  c_cut : Aig.cut;
  c_match : match_info;
  mutable c_cost : float;
}

let constant_table table n_leaves =
  let bits = 1 lsl n_leaves in
  let full = (1 lsl bits) - 1 in
  table land full = 0 || table land full = full

let map seq ~node options =
  if options.cut_k < 2 || options.cut_k > 6 then
    invalid_arg "Synth.map: cut_k must be in 2..6";
  Fault.check "synth.map";
  (* A corrupt mapping keeps only one cut per node: structurally valid
     output, visibly worse area — the guard's acceptance check or a
     retry is expected to recover it. *)
  let options =
    if Fault.corrupted "synth.map" then { options with cuts_per_node = 1 }
    else options
  in
  let aig = seq.Aig.aig in
  let matches = match_table node in
  let cuts = Aig.enumerate_cuts aig ~k:options.cut_k ~per_node:options.cuts_per_node in
  let inv_cell = Pdk.inverter node in
  let n_nodes = Aig.node_count aig in
  (* reference counts approximate sharing for the area-flow estimate *)
  let refs = Array.make n_nodes 1 in
  for n = 0 to n_nodes - 1 do
    match Aig.fanins aig n with
    | None -> ()
    | Some (a, b) ->
      let na = Aig.node_of_lit a and nb = Aig.node_of_lit b in
      refs.(na) <- refs.(na) + 1;
      refs.(nb) <- refs.(nb) + 1
  done;
  let best = Array.make n_nodes None in
  let cost = Array.make n_nodes infinity in
  (* nodes are allocated fanins-first, so index order is topological *)
  for n = 0 to n_nodes - 1 do
    match Aig.fanins aig n with
    | None -> cost.(n) <- 0.0
    | Some (fa, fb) ->
      let try_cut cut =
        if Array.length cut.Aig.leaves >= 1 && not (Array.mem n cut.Aig.leaves) then
          if not (constant_table cut.Aig.table (Array.length cut.Aig.leaves)) then
            match Hashtbl.find_opt matches (Array.length cut.Aig.leaves, cut.Aig.table) with
            | None -> ()
            | Some m ->
              let c =
                match options.objective with
                | Area ->
                  let leaf_flow =
                    Array.fold_left
                      (fun acc leaf -> acc +. (cost.(leaf) /. float_of_int (max 1 refs.(leaf))))
                      0.0 cut.Aig.leaves
                  in
                  m.m_cell.Pdk.area
                  +. (float_of_int m.m_inversions *. inv_cell.Pdk.area)
                  +. leaf_flow
                | Delay ->
                  let worst =
                    Array.fold_left (fun acc leaf -> Float.max acc cost.(leaf)) 0.0 cut.Aig.leaves
                  in
                  (* nominal 6 fF load so slow-but-lean cells are not
                     preferred over well-driving ones *)
                  let nominal_load = 6.0 in
                  m.m_cell.Pdk.intrinsic_ps
                  +. (m.m_cell.Pdk.load_ps_per_ff *. nominal_load)
                  +. (if m.m_inversions > 0 then
                        inv_cell.Pdk.intrinsic_ps +. (inv_cell.Pdk.load_ps_per_ff *. nominal_load)
                      else 0.0)
                  +. worst
              in
              if c < cost.(n) then begin
                cost.(n) <- c;
                best.(n) <- Some { c_cut = cut; c_match = m; c_cost = c }
              end
      in
      List.iter try_cut cuts.(n);
      if best.(n) = None then begin
        (* fallback: the immediate-fanin cut always matches a 2-input cell *)
        let la = Aig.node_of_lit fa and lb = Aig.node_of_lit fb in
        let ca = Aig.is_complemented fa and cb = Aig.is_complemented fb in
        let leaves, table =
          if la = lb then
            (* degenerate: both fanins are the same node — the constructor
               rules make this unreachable, but keep the cover total *)
            ([| la |], if ca = cb then 0b10 land 0b11 else 0b00)
          else if la < lb then
            let t = ref 0 in
            for m = 0 to 3 do
              let va = m land 1 = 1 and vb = m lsr 1 land 1 = 1 in
              let va = if ca then not va else va and vb = if cb then not vb else vb in
              if va && vb then t := !t lor (1 lsl m)
            done;
            ([| la; lb |], !t)
          else
            let t = ref 0 in
            for m = 0 to 3 do
              let vb = m land 1 = 1 and va = m lsr 1 land 1 = 1 in
              let va = if ca then not va else va and vb = if cb then not vb else vb in
              if va && vb then t := !t lor (1 lsl m)
            done;
            ([| lb; la |], !t)
        in
        match Hashtbl.find_opt matches (Array.length leaves, table) with
        | Some m ->
          cost.(n) <- m.m_cell.Pdk.area;
          best.(n) <- Some { c_cut = { Aig.leaves; table }; c_match = m; c_cost = cost.(n) }
        | None -> failwith "Synth.map: library cannot cover a 2-input function"
      end
  done;
  (* {2 Emission} *)
  let source = seq.Aig.source in
  let mapped = Netlist.create ~name:(Netlist.name source) in
  let net_of_node = Array.make n_nodes (-1) in
  let net_of_neg = Array.make n_nodes (-1) in
  let const0 = ref (-1) in
  let dff_of_cell = Hashtbl.create 16 in
  List.iter
    (fun (cell_id, l) ->
      let n = Aig.node_of_lit l in
      match Netlist.kind source cell_id with
      | Netlist.Input ->
        net_of_node.(n) <- Netlist.add_input mapped ~label:(Netlist.label source cell_id)
      | Netlist.Dff ->
        let q = Netlist.add_dff_floating mapped in
        Hashtbl.replace dff_of_cell cell_id q;
        net_of_node.(n) <- q
      | _ -> invalid_arg "Synth.map: corrupt input map")
    seq.Aig.input_of_cell;
  let inv_kind =
    Netlist.Mapped
      { Netlist.cell_name = inv_cell.Pdk.cell_name; arity = 1; table = inv_cell.Pdk.table }
  in
  let inverters = ref 0 in
  let rec net_of n =
    if net_of_node.(n) >= 0 then net_of_node.(n)
    else if Aig.fanins aig n = None && not (Aig.is_input aig n) then begin
      (* constant node *)
      if !const0 < 0 then const0 := Netlist.add_const mapped false;
      net_of_node.(n) <- !const0;
      !const0
    end
    else begin
      let choice =
        match best.(n) with
        | Some c -> c
        | None -> failwith "Synth.map: uncovered node"
      in
      ignore choice.c_cost;
      let m = choice.c_match in
      let leaves = choice.c_cut.Aig.leaves in
      let pin_nets =
        Array.init m.m_cell.Pdk.arity (fun j ->
            let leaf = leaves.(m.m_pin_leaf.(j)) in
            let base = net_of leaf in
            if m.m_pin_inverted.(j) then inverted leaf base else base)
      in
      let kind =
        Netlist.Mapped
          {
            Netlist.cell_name = m.m_cell.Pdk.cell_name;
            arity = m.m_cell.Pdk.arity;
            table = m.m_cell.Pdk.table;
          }
      in
      let id = Netlist.add_gate mapped kind pin_nets in
      net_of_node.(n) <- id;
      id
    end
  and inverted n base =
    if net_of_neg.(n) >= 0 then net_of_neg.(n)
    else begin
      incr inverters;
      let id = Netlist.add_gate mapped inv_kind [| base |] in
      net_of_neg.(n) <- id;
      id
    end
  in
  let net_of_lit l =
    let n = Aig.node_of_lit l in
    let base = net_of n in
    if Aig.is_complemented l then inverted n base else base
  in
  List.iter
    (fun (cell_id, l) ->
      match Netlist.kind source cell_id with
      | Netlist.Output ->
        ignore (Netlist.add_output mapped ~label:(Netlist.label source cell_id) (net_of_lit l))
      | Netlist.Dff ->
        Netlist.connect_dff mapped (Hashtbl.find dff_of_cell cell_id) ~d:(net_of_lit l)
      | _ -> invalid_arg "Synth.map: corrupt output map")
    seq.Aig.output_cones;
  mapped

let cell_usage netlist =
  let census = Hashtbl.create 32 in
  Netlist.iter_cells netlist (fun _ c ->
      match c.Netlist.kind with
      | Netlist.Mapped m ->
        Hashtbl.replace census m.Netlist.cell_name
          (1 + try Hashtbl.find census m.Netlist.cell_name with Not_found -> 0)
      | _ -> ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) census []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mapped_area_um2 netlist ~node =
  let dff_area = (Pdk.dff_cell node).Pdk.area in
  let total = ref 0.0 in
  Netlist.iter_cells netlist (fun _ c ->
      match c.Netlist.kind with
      | Netlist.Mapped m -> total := !total +. (Pdk.find_cell node m.Netlist.cell_name).Pdk.area
      | Netlist.Dff -> total := !total +. dff_area
      | _ -> ());
  !total

let next_drive node name =
  match String.rindex_opt name 'X' with
  | None -> None
  | Some i when i = 0 || name.[i - 1] <> '_' -> None
  | Some i -> (
    let base = String.sub name 0 (i - 1) in
    match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
    | None -> None
    | Some drive -> (
      let candidate = Printf.sprintf "%s_X%d" base (2 * drive) in
      match Pdk.find_cell node candidate with
      | _ -> Some candidate
      | exception Not_found -> None))

let upsize_cells netlist ~node ids =
  let upsized = ref 0 in
  List.iter
    (fun id ->
      match Netlist.kind netlist id with
      | Netlist.Mapped m -> (
        match next_drive node m.Netlist.cell_name with
        | None -> ()
        | Some bigger ->
          Netlist.set_kind netlist id
            (Netlist.Mapped { m with Netlist.cell_name = bigger });
          incr upsized)
      | _ -> ())
    ids;
  if Obs.enabled () then Obs.add_counter "synth.cells_upsized" !upsized;
  !upsized

let buffer_fanout netlist ~node ~max_fanout =
  if max_fanout < 2 then invalid_arg "Synth.buffer_fanout: max_fanout must be >= 2";
  let buf_cell = Pdk.find_cell node "BUF_X4" in
  let buf_kind =
    Netlist.Mapped
      { Netlist.cell_name = buf_cell.Pdk.cell_name; arity = 1; table = buf_cell.Pdk.table }
  in
  let added = ref 0 in
  (* sinks of every net as (cell, pin) pairs, computed once up front so the
     buffers we add are not themselves re-buffered this pass *)
  let n = Netlist.cell_count netlist in
  let sinks = Array.make n [] in
  Netlist.iter_cells netlist (fun id c ->
      Array.iteri (fun pin f -> sinks.(f) <- (id, pin) :: sinks.(f)) c.Netlist.fanins);
  let rec chunk k = function
    | [] -> []
    | xs ->
      let rec take i acc rest =
        if i = 0 then (List.rev acc, rest)
        else match rest with [] -> (List.rev acc, []) | y :: ys -> take (i - 1) (y :: acc) ys
      in
      let group, rest = take k [] xs in
      group :: chunk k rest
  in
  for driver = 0 to n - 1 do
    match Netlist.kind netlist driver with
    | Netlist.Output -> ()
    | _ ->
      let pins = sinks.(driver) in
      if List.length pins > max_fanout then begin
        (* build a buffer layer over sink groups, repeating until the
           driver's direct fanout fits *)
        let rec layer pins =
          if List.length pins <= max_fanout then
            List.iter
              (fun (cell, pin) -> Netlist.set_fanin netlist cell ~pin driver)
              pins
          else begin
            let groups = chunk max_fanout pins in
            let buffer_pins =
              List.map
                (fun group ->
                  let buf = Netlist.add_gate netlist buf_kind [| driver |] in
                  incr added;
                  List.iter
                    (fun (cell, pin) -> Netlist.set_fanin netlist cell ~pin buf)
                    group;
                  (* the buffer becomes a sink of the next layer; its own
                     fanin pin is pin 0 *)
                  (buf, 0))
                groups
            in
            layer buffer_pins
          end
        in
        layer pins
      end
  done;
  if Obs.enabled () then Obs.add_counter "synth.buffers_inserted" !added;
  !added

type lut_report = { k : int; luts : int; lut_depth : int; lut_flip_flops : int }

(* Depth-optimal K-LUT covering: per node, pick the cut minimizing LUT
   depth (then the number of leaves, an area-flow proxy); then extract the
   cover from the output cones. *)
let lut_map netlist ~k =
  if k < 3 || k > 6 then invalid_arg "Synth.lut_map: k must be in 3..6";
  let seq = optimize (Aig.of_netlist netlist) ~passes:default_options.optimization_passes in
  let aig = seq.Aig.aig in
  let n = Aig.node_count aig in
  let cuts = Aig.enumerate_cuts aig ~k ~per_node:8 in
  let depth = Array.make n 0 in
  let best_cut = Array.make n None in
  for node = 0 to n - 1 do
    match Aig.fanins aig node with
    | None -> ()
    | Some (fa, fb) ->
      let candidates =
        List.filter
          (fun c ->
            Array.length c.Aig.leaves >= 1 && not (Array.mem node c.Aig.leaves))
          cuts.(node)
      in
      let score c =
        let d =
          Array.fold_left (fun acc leaf -> max acc depth.(leaf)) 0 c.Aig.leaves
        in
        (d + 1, Array.length c.Aig.leaves)
      in
      let candidates =
        match candidates with
        | [] ->
          (* fall back to the immediate-fanin cut *)
          let la = Aig.node_of_lit fa and lb = Aig.node_of_lit fb in
          let leaves = if la = lb then [| la |] else if la < lb then [| la; lb |] else [| lb; la |] in
          [ { Aig.leaves; table = 0 } ]
        | cs -> cs
      in
      let best =
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some (c, score c)
            | Some (_, s) -> if score c < s then Some (c, score c) else acc)
          None candidates
      in
      (match best with
      | Some (c, (d, _)) ->
        depth.(node) <- d;
        best_cut.(node) <- Some c
      | None -> assert false)
  done;
  (* extract the cover: walk from cone roots through chosen cuts *)
  let in_cover = Array.make n false in
  let rec extract node =
    match Aig.fanins aig node with
    | None -> ()
    | Some _ ->
      if not in_cover.(node) then begin
        in_cover.(node) <- true;
        match best_cut.(node) with
        | Some c -> Array.iter extract c.Aig.leaves
        | None -> ()
      end
  in
  List.iter (fun (_, l) -> extract (Aig.node_of_lit l)) seq.Aig.output_cones;
  let luts = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_cover in
  let lut_depth =
    List.fold_left
      (fun acc (_, l) -> max acc depth.(Aig.node_of_lit l))
      0 seq.Aig.output_cones
  in
  { k; luts; lut_depth; lut_flip_flops = List.length (Netlist.dffs netlist) }

let synthesize netlist ~node options =
  let seq = Aig.extract_cone (Aig.of_netlist netlist) in
  let outputs_of s = List.map snd s.Aig.output_cones in
  let aig_nodes_initial = Aig.and_count seq.Aig.aig in
  let aig_depth_initial = Aig.depth seq.Aig.aig ~outputs:(outputs_of seq) in
  let optimized = optimize seq ~passes:options.optimization_passes in
  let aig_nodes_optimized = Aig.and_count optimized.Aig.aig in
  let aig_depth_optimized = Aig.depth optimized.Aig.aig ~outputs:(outputs_of optimized) in
  let mapped = map optimized ~node options in
  let usage = cell_usage mapped in
  let mapped_cells = List.fold_left (fun acc (_, n) -> acc + n) 0 usage in
  let inverters_added =
    match List.assoc_opt "INV_X1" usage with Some n -> n | None -> 0
  in
  let report =
    {
      aig_nodes_initial;
      aig_nodes_optimized;
      aig_depth_initial;
      aig_depth_optimized;
      mapped_cells;
      inverters_added;
      mapped_area_um2 = mapped_area_um2 mapped ~node;
      flip_flops = List.length (Netlist.dffs mapped);
    }
  in
  (mapped, report)
