module Netlist = Educhip_netlist.Netlist
module Sat = Educhip_sat.Sat
module Sim = Educhip_sim.Sim
module Rng = Educhip_util.Rng
module Digraph = Educhip_util.Digraph

type fault = { fault_net : Netlist.cell_id; stuck_at : bool }

type pattern = {
  assignment : (Netlist.cell_id * bool) list;
  detects : fault list;
}

type report = {
  total_faults : int;
  detected_random : int;
  detected_sat : int;
  untestable : int;
  aborted : int;
  coverage : float;
  patterns : pattern list;
}

(* pseudo-inputs: primary inputs then register Qs *)
let pseudo_inputs netlist = Netlist.inputs netlist @ Netlist.dffs netlist

(* observables: nets feeding output markers and register D pins *)
let observables netlist =
  let nets =
    List.map (fun id -> (Netlist.fanins netlist id).(0)) (Netlist.outputs netlist)
    @ List.map (fun id -> (Netlist.fanins netlist id).(0)) (Netlist.dffs netlist)
  in
  List.sort_uniq compare nets

let enumerate_faults netlist =
  let faults = ref [] in
  Netlist.iter_cells netlist (fun id c ->
      match c.Netlist.kind with
      | Netlist.Output | Netlist.Const _ -> ()
      | Netlist.Input | Netlist.Dff | Netlist.Buf | Netlist.Not | Netlist.And
      | Netlist.Or | Netlist.Xor | Netlist.Nand | Netlist.Nor | Netlist.Xnor
      | Netlist.Mux | Netlist.Mapped _ ->
        faults := { fault_net = id; stuck_at = true } :: { fault_net = id; stuck_at = false }
                  :: !faults);
  List.rev !faults

(* {1 Fault simulation}

   On [Sim]'s word kernel: one pattern per bit, 62 usable so a batch is a
   non-negative int. *)

let word_bits = 62

(* fanout graph with register Q pins as cut points *)
let fanout_graph netlist =
  let n = Netlist.cell_count netlist in
  let g = Digraph.create n in
  Netlist.iter_cells netlist (fun id c ->
      match c.Netlist.kind with
      | Netlist.Dff -> () (* Q is a cut point *)
      | _ -> Array.iter (fun f -> Digraph.add_edge g f id) c.Netlist.fanins);
  g

(* cells downstream of a net, the net itself excluded, in topological order;
   never an input, constant or flip-flop, as none has a fanin edge in [g] *)
let fanout_cone g order net =
  let reachable = Digraph.reachable_from g [ net ] in
  Array.of_seq (Seq.filter (fun id -> id <> net && reachable.(id)) (Array.to_seq order))

(* Evaluate the batch on a stuck-at: force the net, re-evaluate its cone,
   [detected] compares the observables against [good], then the cone is
   restored to [good]. *)
let with_fault sim ~good ~cone fault detected =
  let net = fault.fault_net in
  Sim.force sim net (if fault.stuck_at then -1 else 0);
  Sim.eval_cells sim cone;
  let d = detected () in
  Sim.force sim net good.(net);
  Array.iter (fun id -> Sim.force sim id good.(id)) cone;
  d

let run ?(random_patterns = 256) ?(seed = 1) ?(sat_conflict_limit = 20_000) netlist =
  (match Netlist.validate netlist with
  | [] -> ()
  | _ -> invalid_arg "Atpg.run: invalid netlist");
  let order = Netlist.combinational_topo_order netlist in
  let inputs = pseudo_inputs netlist in
  let n = Netlist.cell_count netlist in
  let obs = observables netlist in
  let faults = enumerate_faults netlist in
  let status = Hashtbl.create 256 (* fault -> `Random | `Sat | `Untestable *) in
  let rng = Rng.create ~seed in
  let graph = fanout_graph netlist in
  (* each fault's cone computed once (shared by both polarities) *)
  let cones = Hashtbl.create 64 in
  let cone_of net =
    match Hashtbl.find_opt cones net with
    | Some c -> c
    | None ->
      let c = fanout_cone graph order net in
      Hashtbl.replace cones net c;
      c
  in
  (* random phase, in batches of [word_bits] *)
  let sim = Sim.create netlist in
  let mask = (1 lsl word_bits) - 1 in
  let batches = (random_patterns + word_bits - 1) / word_bits in
  for _ = 1 to batches do
    List.iter
      (fun id -> Sim.set_word sim id (Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)))
      inputs;
    Sim.eval sim;
    let good = Array.init n (Sim.word sim) in
    List.iter
      (fun fault ->
        if not (Hashtbl.mem status fault) then begin
          let detected =
            with_fault sim ~good ~cone:(cone_of fault.fault_net) fault (fun () ->
                List.exists (fun o -> (Sim.word sim o lxor good.(o)) land mask <> 0) obs)
          in
          if detected then Hashtbl.replace status fault `Random
        end)
      faults
  done;
  (* SAT phase: one fresh solver per fault, encoding only the logic that
     matters — the transitive fanin support of the observables the fault
     can reach, plus the faulty copy of the fault's cone. Local faults get
     tiny CNFs; global ones (scan enables) pay full price but are rare. *)
  let sat_patterns = ref [] in
  let remaining = List.filter (fun f -> not (Hashtbl.mem status f)) faults in
  List.iter
    (fun fault ->
      let net = fault.fault_net in
      let cone = cone_of net in
      let in_cone = Hashtbl.create 64 in
      Hashtbl.replace in_cone net ();
      Array.iter (fun id -> Hashtbl.replace in_cone id ()) cone;
      let reached_obs = List.filter (Hashtbl.mem in_cone) obs in
      if reached_obs = [] then Hashtbl.replace status fault `Untestable
      else begin
        (* backward support of the reached observables *)
        let support = Hashtbl.create 256 in
        let rec back id =
          if not (Hashtbl.mem support id) then begin
            Hashtbl.replace support id ();
            let c = Netlist.cell netlist id in
            match c.Netlist.kind with
            | Netlist.Input | Netlist.Dff -> ()
            | _ -> Array.iter back c.Netlist.fanins
          end
        in
        List.iter back reached_obs;
        let solver = Sat.create () in
        let good_var = Hashtbl.create 256 in
        let gvar id =
          match Hashtbl.find_opt good_var id with
          | Some v -> v
          | None ->
            let v = Sat.fresh_var solver in
            Hashtbl.replace good_var id v;
            v
        in
        (* good circuit over the support, in topological order *)
        Array.iter
          (fun id ->
            if Hashtbl.mem support id then
              Sat.add_cell solver gvar id (Netlist.cell netlist id))
          order;
        (* faulty copy over cone ∩ support; the fault net forced *)
        let faulty_var = Hashtbl.create 64 in
        let fvar id =
          match Hashtbl.find_opt faulty_var id with Some v -> v | None -> gvar id
        in
        let fault_var = Sat.fresh_var solver in
        Hashtbl.replace faulty_var net fault_var;
        Sat.add_clause solver [ (if fault.stuck_at then fault_var else -fault_var) ];
        Array.iter
          (fun id ->
            if Hashtbl.mem support id then begin
              Hashtbl.replace faulty_var id (Sat.fresh_var solver);
              Sat.add_cell solver fvar id (Netlist.cell netlist id)
            end)
          cone;
        let xors =
          List.map
            (fun o ->
              let x = Sat.fresh_var solver in
              Sat.add_xor solver x (gvar o) (fvar o);
              x)
            reached_obs
        in
        Sat.add_clause solver xors;
        match Sat.solve ~conflict_limit:sat_conflict_limit solver with
        | Sat.Unsat -> Hashtbl.replace status fault `Untestable
        | Sat.Unknown -> Hashtbl.replace status fault `Aborted
        | Sat.Sat model ->
          Hashtbl.replace status fault `Sat;
          let assignment =
            List.map
              (fun id ->
                match Hashtbl.find_opt good_var id with
                | Some v -> (id, model.(v))
                | None -> (id, false) (* outside the support: don't care *))
              inputs
          in
          sat_patterns := { assignment; detects = [ fault ] } :: !sat_patterns
      end)
    remaining;
  let count tag =
    Hashtbl.fold (fun _ t acc -> if t = tag then acc + 1 else acc) status 0
  in
  let total_faults = List.length faults in
  let detected_random = count `Random in
  let detected_sat = count `Sat in
  let untestable = count `Untestable in
  let aborted = count `Aborted in
  let testable = total_faults - untestable in
  {
    total_faults;
    detected_random;
    detected_sat;
    untestable;
    aborted;
    coverage =
      (if testable = 0 then 1.0
       else float_of_int (detected_random + detected_sat) /. float_of_int testable);
    patterns = List.rev !sat_patterns;
  }

(* The good-machine values are re-simulated only when the pattern changes:
   [with_fault] leaves the simulator in the good state it found. *)
let detects netlist =
  let sim = Sim.create netlist in
  let inputs = pseudo_inputs netlist in
  let n = Netlist.cell_count netlist in
  let obs = observables netlist in
  let graph = fanout_graph netlist in
  let order = Netlist.combinational_topo_order netlist in
  let last = ref None and good = ref [||] in
  fun pat fault ->
    (match !last with
    | Some p when p == pat -> ()
    | Some _ | None ->
      List.iter
        (fun id ->
          Sim.set_word sim id
            (match List.assoc_opt id pat.assignment with Some true -> -1 | Some false | None -> 0))
        inputs;
      Sim.eval sim;
      good := Array.init n (Sim.word sim);
      last := Some pat);
    let good = !good in
    with_fault sim ~good ~cone:(fanout_cone graph order fault.fault_net) fault (fun () ->
        List.exists (fun o -> (Sim.word sim o lxor good.(o)) land 1 <> 0) obs)

let pp_report ppf r =
  Format.fprintf ppf
    "ATPG: %d faults, %d detected by random patterns, %d by SAT, %d untestable, %d aborted -> %.1f%% coverage (%d directed patterns)"
    r.total_faults r.detected_random r.detected_sat r.untestable r.aborted
    (r.coverage *. 100.0)
    (List.length r.patterns)
