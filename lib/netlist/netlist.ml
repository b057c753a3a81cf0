module Digraph = Educhip_util.Digraph

type cell_id = int

type kind =
  | Input
  | Output
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Xnor
  | Mux
  | Dff
  | Mapped of mapped

and mapped = { cell_name : string; arity : int; table : int }

type cell = { kind : kind; label : string; fanins : cell_id array }

type t = {
  name : string;
  mutable cells : cell array;
  mutable size : int;
  mutable rev_inputs : cell_id list;
  mutable rev_outputs : cell_id list;
  mutable rev_dffs : cell_id list;
}

let dummy_cell = { kind = Const false; label = ""; fanins = [||] }

let create ~name =
  { name; cells = [||]; size = 0; rev_inputs = []; rev_outputs = []; rev_dffs = [] }

let name t = t.name

let cell_count t = t.size

let append t c =
  if Array.length t.cells = t.size then begin
    let capacity = max 64 (2 * t.size) in
    let cells = Array.make capacity dummy_cell in
    Array.blit t.cells 0 cells 0 t.size;
    t.cells <- cells
  end;
  t.cells.(t.size) <- c;
  t.size <- t.size + 1;
  t.size - 1

let kind_arity = function
  | Input | Const _ -> 0
  | Output | Buf | Not | Dff -> 1
  | And | Or | Xor | Nand | Nor | Xnor -> 2
  | Mux -> 3
  | Mapped m -> m.arity

let is_combinational = function
  | Buf | Not | And | Or | Xor | Nand | Nor | Xnor | Mux | Mapped _ -> true
  | Input | Output | Const _ | Dff -> false

let check_fanins t where fanins =
  Array.iter
    (fun f ->
      if f < 0 || f >= t.size then
        invalid_arg (Printf.sprintf "Netlist.%s: fanin %d out of range" where f))
    fanins

let add_input t ~label =
  let id = append t { kind = Input; label; fanins = [||] } in
  t.rev_inputs <- id :: t.rev_inputs;
  id

let add_const t b = append t { kind = Const b; label = (if b then "const1" else "const0"); fanins = [||] }

let add_gate t kind fanins =
  (match kind with
  | Input | Output | Const _ ->
    invalid_arg "Netlist.add_gate: use add_input/add_output/add_const"
  | Dff -> invalid_arg "Netlist.add_gate: use add_dff"
  | Mapped m ->
    if m.arity < 1 || m.arity > 6 then
      invalid_arg "Netlist.add_gate: mapped arity must be in 1..6"
  | Buf | Not | And | Or | Xor | Nand | Nor | Xnor | Mux -> ());
  if Array.length fanins <> kind_arity kind then
    invalid_arg
      (Printf.sprintf "Netlist.add_gate: kind needs %d fanins, got %d"
         (kind_arity kind) (Array.length fanins));
  check_fanins t "add_gate" fanins;
  append t { kind; label = ""; fanins = Array.copy fanins }

let add_dff t ~d =
  check_fanins t "add_dff" [| d |];
  let id = append t { kind = Dff; label = ""; fanins = [| d |] } in
  t.rev_dffs <- id :: t.rev_dffs;
  id

let add_dff_floating t =
  let id = append t { kind = Dff; label = ""; fanins = [||] } in
  t.rev_dffs <- id :: t.rev_dffs;
  id

let connect_dff t id ~d =
  if id < 0 || id >= t.size then invalid_arg "Netlist.connect_dff: id out of range";
  check_fanins t "connect_dff" [| d |];
  let c = t.cells.(id) in
  (match c.kind, Array.length c.fanins with
  | Dff, 0 -> t.cells.(id) <- { c with fanins = [| d |] }
  | Dff, _ -> invalid_arg "Netlist.connect_dff: dff already connected"
  | _, _ -> invalid_arg "Netlist.connect_dff: not a dff")

let add_output t ~label src =
  check_fanins t "add_output" [| src |];
  let id = append t { kind = Output; label; fanins = [| src |] } in
  t.rev_outputs <- id :: t.rev_outputs;
  id

let set_kind t id kind =
  if id < 0 || id >= t.size then invalid_arg "Netlist.set_kind: id out of range";
  let c = t.cells.(id) in
  if not (is_combinational c.kind) then
    invalid_arg "Netlist.set_kind: existing cell is not combinational";
  if not (is_combinational kind) then
    invalid_arg "Netlist.set_kind: new kind is not combinational";
  if kind_arity kind <> Array.length c.fanins then
    invalid_arg "Netlist.set_kind: arity mismatch";
  t.cells.(id) <- { c with kind }

let set_fanin t id ~pin driver =
  if id < 0 || id >= t.size then invalid_arg "Netlist.set_fanin: id out of range";
  if driver < 0 || driver >= t.size then
    invalid_arg "Netlist.set_fanin: driver out of range";
  let c = t.cells.(id) in
  if pin < 0 || pin >= Array.length c.fanins then
    invalid_arg "Netlist.set_fanin: bad pin index";
  c.fanins.(pin) <- driver

let cell t id =
  if id < 0 || id >= t.size then invalid_arg "Netlist.cell: id out of range";
  t.cells.(id)

let kind t id = (cell t id).kind

let label t id = (cell t id).label

let fanins t id = (cell t id).fanins

let inputs t = List.rev t.rev_inputs

let outputs t = List.rev t.rev_outputs

let dffs t = List.rev t.rev_dffs

let fanout_counts t =
  let counts = Array.make t.size 0 in
  for id = 0 to t.size - 1 do
    Array.iter (fun f -> counts.(f) <- counts.(f) + 1) t.cells.(id).fanins
  done;
  counts

let iter_cells t f =
  for id = 0 to t.size - 1 do
    f id t.cells.(id)
  done

let gate_count t =
  let n = ref 0 in
  iter_cells t (fun _ c -> if is_combinational c.kind then incr n);
  !n

let kind_name = function
  | Input -> "input"
  | Output -> "output"
  | Const false -> "const0"
  | Const true -> "const1"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xnor -> "xnor"
  | Mux -> "mux"
  | Dff -> "dff"
  | Mapped m -> m.cell_name

let count_by_kind t =
  let table = Hashtbl.create 16 in
  iter_cells t (fun _ c ->
      let key = kind_name c.kind in
      Hashtbl.replace table key (1 + try Hashtbl.find table key with Not_found -> 0));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Combinational view: a DFF is split conceptually into a D-side sink (it
   keeps its fanin edge, so arrival depth at the D pin is measured) and a
   Q-side source (edges *out of* a DFF are cut, so feedback through
   registers does not create graph cycles). *)
let combinational_graph t =
  let g = Digraph.create t.size in
  let edge_from f id =
    match t.cells.(f).kind with
    | Dff -> () (* Q pin: sequential source, level 0 *)
    | Input | Output | Const _ | Buf | Not | And | Or | Xor | Nand | Nor | Xnor | Mux
    | Mapped _ ->
      Digraph.add_edge g f id
  in
  iter_cells t (fun id c ->
      match c.kind with
      | Input | Const _ -> ()
      | Dff | Output | Buf | Not | And | Or | Xor | Nand | Nor | Xnor | Mux | Mapped _ ->
        Array.iter (fun f -> edge_from f id) c.fanins);
  g

let combinational_topo_order t =
  match Digraph.topological_order (combinational_graph t) with
  | Some order -> order
  | None -> invalid_arg "Netlist.combinational_topo_order: combinational cycle"

(* Depth in gate stages: levels count edges, and the final edge into an
   Output/DFF sink crosses no gate, so the gate count on the longest
   source-to-sink path is the sink's level minus one (zero when a source
   feeds the sink directly). *)
let logic_depth t =
  match Digraph.longest_path_levels (combinational_graph t) with
  | None -> invalid_arg "Netlist.logic_depth: combinational cycle"
  | Some levels ->
    let stages = ref 0 in
    iter_cells t (fun id c ->
        match c.kind with
        | Output | Dff -> if levels.(id) - 1 > !stages then stages := levels.(id) - 1
        | Input | Const _ | Buf | Not | And | Or | Xor | Nand | Nor | Xnor | Mux | Mapped _ ->
          ());
    !stages

type violation =
  | Arity_mismatch of cell_id
  | Dangling_fanin of cell_id * cell_id
  | Combinational_cycle of cell_id list
  | Output_without_driver of cell_id

let pp_violation ppf = function
  | Arity_mismatch id -> Format.fprintf ppf "cell %d: fanin arity mismatch" id
  | Dangling_fanin (id, f) -> Format.fprintf ppf "cell %d: dangling fanin %d" id f
  | Combinational_cycle ids ->
    Format.fprintf ppf "combinational cycle through cells %a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Format.pp_print_int)
      ids
  | Output_without_driver id -> Format.fprintf ppf "output cell %d has no driver" id

let validate t =
  let violations = ref [] in
  iter_cells t (fun id c ->
      if Array.length c.fanins <> kind_arity c.kind then
        violations := Arity_mismatch id :: !violations;
      Array.iter
        (fun f -> if f < 0 || f >= t.size then violations := Dangling_fanin (id, f) :: !violations)
        c.fanins;
      match c.kind with
      | Output when Array.length c.fanins = 0 ->
        violations := Output_without_driver id :: !violations
      | _ -> ());
  (if Digraph.has_cycle (combinational_graph t) then
     (* report the set of cells with nonzero in/out degree in the cyclic core;
        a precise cycle listing is not needed for diagnostics *)
     let cyclic = ref [] in
     iter_cells t (fun id c -> if is_combinational c.kind then cyclic := id :: !cyclic);
     violations := Combinational_cycle (List.rev !cyclic) :: !violations);
  List.rev !violations

(* The one statement of gate semantics: bit [i] of a table is the output
   when fanin [j] carries bit [j] of [i]. Mux fanins are [|sel; a; b|], so
   sel is bit 0 of the index. *)
let kind_table = function
  | Input | Output | Const _ | Dff -> None
  | Buf -> Some (1, 0b10)
  | Not -> Some (1, 0b01)
  | And -> Some (2, 0b1000)
  | Or -> Some (2, 0b1110)
  | Xor -> Some (2, 0b0110)
  | Nand -> Some (2, 0b0111)
  | Nor -> Some (2, 0b0001)
  | Xnor -> Some (2, 0b1001)
  | Mux -> Some (3, 0xE4)
  | Mapped m -> Some (m.arity, m.table)

let pp_summary ppf t =
  Format.fprintf ppf "netlist %s: %d cells (%d inputs, %d outputs, %d dffs, %d gates), depth %d"
    t.name t.size
    (List.length (inputs t))
    (List.length (outputs t))
    (List.length (dffs t))
    (gate_count t) (logic_depth t)

(* Rebuild a netlist from a serialized cell table (an artifact-store
   snapshot). Cell ids are positional, so the cell array alone pins the
   whole graph; the input/output/dff index lists are recomputed in id
   order, which is creation order for any netlist built through the
   constructors above. *)
let restore ~name cells =
  let size = Array.length cells in
  let t =
    {
      name;
      cells = Array.map (fun c -> { c with fanins = Array.copy c.fanins }) cells;
      size;
      rev_inputs = [];
      rev_outputs = [];
      rev_dffs = [];
    }
  in
  iter_cells t (fun id c ->
      (match c.kind with
      | Dff when Array.length c.fanins = 0 -> () (* floating forward reference *)
      | _ ->
        if Array.length c.fanins <> kind_arity c.kind then
          invalid_arg
            (Printf.sprintf "Netlist.restore: cell %d fanin arity mismatch" id));
      Array.iter
        (fun f ->
          if f < 0 || f >= size then
            invalid_arg
              (Printf.sprintf "Netlist.restore: cell %d fanin %d out of range" id f))
        c.fanins;
      match c.kind with
      | Input -> t.rev_inputs <- id :: t.rev_inputs
      | Output -> t.rev_outputs <- id :: t.rev_outputs
      | Dff -> t.rev_dffs <- id :: t.rev_dffs
      | Const _ | Buf | Not | And | Or | Xor | Nand | Nor | Xnor | Mux | Mapped _ -> ());
  t

(* The canonical form spells out everything evaluation depends on: cell
   ids are positional, so (kind, fanins) per id pins the whole graph;
   Mapped cells add their truth table (a renamed library cell with a
   different function must not collide); port labels pin the interface.
   The netlist's display name is deliberately excluded — two structurally
   identical designs hash equal, which is exactly what a content-
   addressed result cache wants. *)
let structural_digest t =
  let buf = Buffer.create (64 * t.size) in
  iter_cells t (fun id c ->
      Buffer.add_string buf (string_of_int id);
      Buffer.add_char buf '=';
      (match c.kind with
      | Mapped m ->
        Buffer.add_string buf m.cell_name;
        Buffer.add_char buf '/';
        Buffer.add_string buf (string_of_int m.arity);
        Buffer.add_char buf '/';
        Buffer.add_string buf (string_of_int m.table)
      | k -> Buffer.add_string buf (kind_name k));
      (match c.kind with
      | Input | Output ->
        Buffer.add_char buf '\'';
        Buffer.add_string buf c.label
      | _ -> ());
      Buffer.add_char buf '(';
      Array.iter
        (fun f ->
          Buffer.add_string buf (string_of_int f);
          Buffer.add_char buf ',')
        c.fanins;
      Buffer.add_string buf ");");
  Digest.to_hex (Digest.string (Buffer.contents buf))
