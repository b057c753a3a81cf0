module Netlist = Educhip_netlist.Netlist

(* The compiled program. Every net holds an int word and gates evaluate
   lane-wise; the scalar API drives and reads words of all zeros or all
   ones. Per-cell arrays are indexed by cell id: [arity] is the table's
   arity, -1 for the sources (inputs and flip-flop Qs) that nothing
   evaluates; a cell's fanins start at [fanin_at] in [fanin] and its
   2^arity table masks (0 or -1) at [mask_at] in [mask]. An output marker
   compiles as a buffer, a constant as an arity-0 table. *)
type t = {
  netlist : Netlist.t;
  arity : int array;
  fanin_at : int array;
  fanin : Netlist.cell_id array;
  mask_at : int array;
  mask : int array;
  order : Netlist.cell_id array; (* evaluated cells in topological order *)
  words : int array; (* current net values *)
  state : int array; (* flip-flop Q values, indexed by cell id *)
  dff_q : Netlist.cell_id array;
  dff_d : Netlist.cell_id array; (* D driver of [dff_q.(i)]; -1 if floating *)
  fold : int array; (* scratch for the generic table fold *)
  inputs_by_name : (string, Netlist.cell_id array) Hashtbl.t;
  outputs_by_name : (string, Netlist.cell_id array) Hashtbl.t;
}

(* "x[3]" -> ("x", 3); "x" -> ("x", 0) *)
let parse_label label =
  let len = String.length label in
  match String.index_opt label '[' with
  | Some i when len >= i + 3 && label.[len - 1] = ']' -> (
    let base = String.sub label 0 i in
    let digits = String.sub label (i + 1) (len - i - 2) in
    match int_of_string_opt digits with
    | Some idx when idx >= 0 -> (base, idx)
    | Some _ | None -> (label, 0))
  | Some _ | None -> (label, 0)

let group_buses netlist ids =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let base, idx = parse_label (Netlist.label netlist id) in
      let entries = try Hashtbl.find by_name base with Not_found -> [] in
      Hashtbl.replace by_name base ((idx, id) :: entries))
    ids;
  let result = Hashtbl.create 16 in
  Hashtbl.iter
    (fun base entries ->
      let sorted = List.sort (fun (i, _) (j, _) -> compare i j) entries in
      Hashtbl.replace result base (Array.of_list (List.map snd sorted)))
    by_name;
  result

let table_of_cell (c : Netlist.cell) =
  match c.kind with
  | Netlist.Input | Netlist.Dff -> None
  | Netlist.Const b -> Some (0, Bool.to_int b)
  | Netlist.Output -> Netlist.kind_table Netlist.Buf
  | k -> Netlist.kind_table k

let create netlist =
  let n = Netlist.cell_count netlist in
  let arity = Array.make n (-1) in
  let fanin_at = Array.make n 0 in
  let mask_at = Array.make n 0 in
  let fanin = ref [] and fanin_len = ref 0 in
  let mask = ref [] and mask_len = ref 0 in
  Netlist.iter_cells netlist (fun id c ->
      match table_of_cell c with
      | None -> ()
      | Some (k, table) ->
        arity.(id) <- k;
        fanin_at.(id) <- !fanin_len;
        mask_at.(id) <- !mask_len;
        fanin := List.rev_append (Array.to_list c.fanins) !fanin;
        fanin_len := !fanin_len + k;
        for i = 0 to (1 lsl k) - 1 do
          mask := -((table lsr i) land 1) :: !mask
        done;
        mask_len := !mask_len + (1 lsl k));
  let dffs = Array.of_list (Netlist.dffs netlist) in
  {
    netlist;
    arity;
    fanin_at;
    fanin = Array.of_list (List.rev !fanin);
    mask_at;
    mask = Array.of_list (List.rev !mask);
    order =
      Array.of_seq
        (Seq.filter (fun id -> arity.(id) >= 0)
           (Array.to_seq (Netlist.combinational_topo_order netlist)));
    words = Array.make n 0;
    state = Array.make n 0;
    dff_q = dffs;
    dff_d =
      Array.map
        (fun id ->
          let f = Netlist.fanins netlist id in
          if Array.length f = 0 then -1 else f.(0))
        dffs;
    fold = Array.make 64 0;
    inputs_by_name = group_buses netlist (Netlist.inputs netlist);
    outputs_by_name = group_buses netlist (Netlist.outputs netlist);
  }

let netlist t = t.netlist

let reset t =
  Array.fill t.words 0 (Array.length t.words) 0;
  Array.fill t.state 0 (Array.length t.state) 0

let word_of_bool v = -Bool.to_int v

let set_input t id v =
  match Netlist.kind t.netlist id with
  | Netlist.Input -> t.words.(id) <- word_of_bool v
  | _ -> invalid_arg "Sim.set_input: not a primary input"

let value t id =
  if id < 0 || id >= Array.length t.words then invalid_arg "Sim.value: id out of range";
  t.words.(id) land 1 = 1

let input_bus t name =
  match Hashtbl.find_opt t.inputs_by_name name with
  | Some ids -> ids
  | None -> raise Not_found

let output_bus t name =
  match Hashtbl.find_opt t.outputs_by_name name with
  | Some ids -> ids
  | None -> raise Not_found

let set_bus t name v =
  let ids = input_bus t name in
  Array.iteri (fun i id -> t.words.(id) <- word_of_bool ((v lsr i) land 1 = 1)) ids

let read_bus t name =
  let ids = output_bus t name in
  if Array.length ids > 62 then invalid_arg "Sim.read_bus: bus wider than 62 bits";
  let v = ref 0 in
  Array.iteri (fun i id -> v := !v lor ((t.words.(id) land 1) lsl i)) ids;
  !v

let set_word t id w =
  match Netlist.kind t.netlist id with
  | Netlist.Input -> t.words.(id) <- w
  | Netlist.Dff -> t.state.(id) <- w
  | _ -> invalid_arg "Sim.set_word: not a primary input or flip-flop"

let word t id = t.words.(id)

let force t id w = t.words.(id) <- w

(* the one gate evaluator: a table folded as a mux tree over its masks,
   fanin 0 selecting at the leaves *)
let[@inline] mux s x y = x lxor (s land (x lxor y))

let eval_table t id =
  let w = t.words and m = t.mask and f = t.fanin in
  let fa = t.fanin_at.(id) and ma = t.mask_at.(id) in
  match t.arity.(id) with
  | 0 -> w.(id) <- m.(ma)
  | 1 -> w.(id) <- mux w.(f.(fa)) m.(ma) m.(ma + 1)
  | 2 ->
    let s0 = w.(f.(fa)) in
    w.(id) <- mux w.(f.(fa + 1)) (mux s0 m.(ma) m.(ma + 1)) (mux s0 m.(ma + 2) m.(ma + 3))
  | 3 ->
    let s0 = w.(f.(fa)) and s1 = w.(f.(fa + 1)) in
    let lo = mux s1 (mux s0 m.(ma) m.(ma + 1)) (mux s0 m.(ma + 2) m.(ma + 3)) in
    let hi = mux s1 (mux s0 m.(ma + 4) m.(ma + 5)) (mux s0 m.(ma + 6) m.(ma + 7)) in
    w.(id) <- mux w.(f.(fa + 2)) lo hi
  | k when k > 0 ->
    let fold = t.fold in
    Array.blit m ma fold 0 (1 lsl k);
    for j = 0 to k - 1 do
      let s = w.(f.(fa + j)) in
      for i = 0 to (1 lsl (k - 1 - j)) - 1 do
        fold.(i) <- mux s fold.(2 * i) fold.((2 * i) + 1)
      done
    done;
    w.(id) <- fold.(0)
  | _ -> () (* a source: driven by the caller or the register state *)

let eval_cells t ids =
  for i = 0 to Array.length ids - 1 do
    eval_table t ids.(i)
  done

(* The topological order cuts DFF Q edges, so consumers of a register may
   precede it in [t.order]; publish all register values first, then sweep. *)
let eval t =
  for i = 0 to Array.length t.dff_q - 1 do
    let q = t.dff_q.(i) in
    t.words.(q) <- t.state.(q)
  done;
  eval_cells t t.order

(* sample every D pin from the settled words, then commit: [state] is
   separate from [words], so the commits cannot disturb the samples *)
let step t =
  eval t;
  for i = 0 to Array.length t.dff_q - 1 do
    t.state.(t.dff_q.(i)) <- t.words.(t.dff_d.(i))
  done

let run_cycles t n =
  for _ = 1 to n do
    step t
  done

type trace = { cycle : int; values : (string * int) list }

let run_testbench t ~stimuli ~watch =
  reset t;
  List.mapi
    (fun cycle assignments ->
      List.iter (fun (name, v) -> set_bus t name v) assignments;
      step t;
      eval t;
      { cycle; values = List.map (fun name -> (name, read_bus t name)) watch })
    stimuli
