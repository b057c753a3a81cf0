module Netlist = Educhip_netlist.Netlist
module Sat = Educhip_sat.Sat
module Sim = Educhip_sim.Sim

type trace = { length : int; steps : (string * bool) list array }

type verdict = Proved of int | Holds_bounded of int | Violated of trace

let property_cell netlist property =
  let matching =
    List.filter (fun id -> Netlist.label netlist id = property) (Netlist.outputs netlist)
  in
  match matching with
  | [ id ] -> id
  | [] -> invalid_arg (Printf.sprintf "Bmc.check: no one-bit output named %s" property)
  | _ -> invalid_arg (Printf.sprintf "Bmc.check: output %s is wider than one bit" property)

(* Encode one timeframe: fresh variables for primary inputs and every
   combinational cell; register variables are supplied by the caller
   (forced reset values for frame 0 of the base case, frame t-1's D-cone
   variables afterwards). Returns the variable array for the frame. *)
let encode_frame solver netlist order ~register_vars =
  let n = Netlist.cell_count netlist in
  let vars = Array.make n 0 in
  List.iter (fun id -> vars.(id) <- Sat.fresh_var solver) (Netlist.inputs netlist);
  List.iter2 (fun id v -> vars.(id) <- v) (Netlist.dffs netlist) register_vars;
  Array.iter
    (fun id ->
      let c = Netlist.cell netlist id in
      match c.Netlist.kind with
      | Netlist.Input | Netlist.Dff -> ()
      | _ ->
        vars.(id) <- Sat.fresh_var solver;
        Sat.add_cell solver (Array.get vars) id c)
    order;
  vars

(* D-pin variables of a frame become the next frame's register values. *)
let next_state netlist frame_vars =
  List.map (fun id -> frame_vars.((Netlist.fanins netlist id).(0))) (Netlist.dffs netlist)

let input_assignment netlist frame_vars model =
  List.map
    (fun id -> (Netlist.label netlist id, model.(frame_vars.(id))))
    (Netlist.inputs netlist)

let check netlist ~property ~depth ?(induction = true) () =
  (match Netlist.validate netlist with
  | [] -> ()
  | _ -> invalid_arg "Bmc.check: invalid netlist");
  if depth < 1 then invalid_arg "Bmc.check: depth must be >= 1";
  let prop = property_cell netlist property in
  let order = Netlist.combinational_topo_order netlist in
  let dffs = Netlist.dffs netlist in
  (* {2 base case} *)
  let solver = Sat.create () in
  let reset =
    List.map
      (fun _ ->
        let v = Sat.fresh_var solver in
        Sat.add_clause solver [ -v ];
        v)
      dffs
  in
  let frames = Array.make depth [||] in
  let state = ref reset in
  for t = 0 to depth - 1 do
    let vars = encode_frame solver netlist order ~register_vars:!state in
    frames.(t) <- vars;
    state := next_state netlist vars
  done;
  (* violation: the property is 0 in some frame *)
  Sat.add_clause solver (Array.to_list (Array.map (fun vars -> -vars.(prop)) frames));
  match Sat.solve solver with
  | Sat.Sat model when not (Sat.check_model solver model) ->
    invalid_arg "Bmc.check: solver returned an invalid model"
  | Sat.Sat model ->
    (* first violating frame gives the trace length *)
    let violated_at =
      let rec find t = if not model.(frames.(t).(prop)) then t else find (t + 1) in
      find 0
    in
    let steps =
      Array.init (violated_at + 1) (fun t -> input_assignment netlist frames.(t) model)
    in
    Violated { length = violated_at + 1; steps }
  | Sat.Unknown -> Holds_bounded depth (* unreachable: no conflict limit *)
  | Sat.Unsat ->
    if not induction then Holds_bounded depth
    else begin
      (* {2 induction step}: arbitrary start state; P on frames 0..depth-1
         implies P on frame depth *)
      let solver = Sat.create () in
      let free_state = List.map (fun _ -> Sat.fresh_var solver) dffs in
      let state = ref free_state in
      let last_prop = ref 0 in
      for t = 0 to depth do
        let vars = encode_frame solver netlist order ~register_vars:!state in
        if t < depth then Sat.add_clause solver [ vars.(prop) ] (* P holds *)
        else last_prop := vars.(prop);
        state := next_state netlist vars
      done;
      Sat.add_clause solver [ - !last_prop ];
      match Sat.solve solver with
      | Sat.Unsat -> Proved depth
      | Sat.Sat _ | Sat.Unknown -> Holds_bounded depth
    end

let replay netlist ~property trace =
  let prop = property_cell netlist property in
  let sim = Sim.create netlist in
  let inputs = Netlist.inputs netlist in
  let final = ref true in
  Array.iter
    (fun assignment ->
      List.iter
        (fun id ->
          Sim.set_input sim id
            (Option.value ~default:false (List.assoc_opt (Netlist.label netlist id) assignment)))
        inputs;
      Sim.step sim;
      final := Sim.value sim prop)
    trace.steps;
  not !final

let pp_verdict ppf = function
  | Proved k -> Format.fprintf ppf "proved by %d-induction" k
  | Holds_bounded k -> Format.fprintf ppf "holds within %d cycles (no proof)" k
  | Violated t -> Format.fprintf ppf "VIOLATED after %d cycles" t.length
