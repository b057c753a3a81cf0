(* Emission and parsing of a flat structural Verilog dialect.

   The emitted form is valid Verilog-2001. Technology-mapped cells are
   instantiated by library name with positional pins (output first); their
   truth tables travel in `// educhip cell <name> <arity> <table>` pragma
   comments so the file parses back without a PDK. *)

(* "x[3]" -> ("x", Some 3); "x" -> ("x", None) *)
let split_label label =
  let len = String.length label in
  match String.index_opt label '[' with
  | Some i when len >= i + 3 && label.[len - 1] = ']' -> (
    match int_of_string_opt (String.sub label (i + 1) (len - i - 2)) with
    | Some idx when idx >= 0 -> (String.sub label 0 i, Some idx)
    | Some _ | None -> (label, None))
  | Some _ | None -> (label, None)

(* Group port-bit labels into (bus name, width) in first-appearance order. *)
let buses_of labels =
  let order = ref [] in
  let widths = Hashtbl.create 8 in
  List.iter
    (fun label ->
      let base, idx = split_label label in
      let bit = match idx with Some i -> i | None -> 0 in
      match Hashtbl.find_opt widths base with
      | None ->
        order := base :: !order;
        Hashtbl.replace widths base (bit + 1)
      | Some w -> Hashtbl.replace widths base (max w (bit + 1)))
    labels;
  List.rev_map (fun base -> (base, Hashtbl.find widths base)) !order

let gate_keyword = function
  | Netlist.Buf -> Some "buf"
  | Netlist.Not -> Some "not"
  | Netlist.And -> Some "and"
  | Netlist.Or -> Some "or"
  | Netlist.Xor -> Some "xor"
  | Netlist.Nand -> Some "nand"
  | Netlist.Nor -> Some "nor"
  | Netlist.Xnor -> Some "xnor"
  | Netlist.Mux | Netlist.Dff | Netlist.Mapped _ | Netlist.Input | Netlist.Output
  | Netlist.Const _ ->
    None

let emit netlist =
  let buffer = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let input_labels = List.map (Netlist.label netlist) (Netlist.inputs netlist) in
  let output_labels = List.map (Netlist.label netlist) (Netlist.outputs netlist) in
  let in_buses = buses_of input_labels and out_buses = buses_of output_labels in
  (* net text of a cell output *)
  let net id =
    match Netlist.kind netlist id with
    | Netlist.Input -> Netlist.label netlist id
    | _ -> Printf.sprintf "n%d" id
  in
  (* pragma comments carry mapped-cell truth tables *)
  let pragmas = Hashtbl.create 8 in
  Netlist.iter_cells netlist (fun _ c ->
      match c.Netlist.kind with
      | Netlist.Mapped m -> Hashtbl.replace pragmas m.Netlist.cell_name m
      | _ -> ());
  add "// generated by educhip\n";
  Hashtbl.iter
    (fun _ (m : Netlist.mapped) ->
      add "// educhip cell %s %d %d\n" m.Netlist.cell_name m.Netlist.arity m.Netlist.table)
    pragmas;
  let port_names = List.map fst in_buses @ List.map fst out_buses in
  add "module %s (%s);\n" (Netlist.name netlist) (String.concat ", " port_names);
  List.iter
    (fun (name, w) ->
      if w = 1 then add "  input %s;\n" name else add "  input [%d:0] %s;\n" (w - 1) name)
    in_buses;
  List.iter
    (fun (name, w) ->
      if w = 1 then add "  output %s;\n" name else add "  output [%d:0] %s;\n" (w - 1) name)
    out_buses;
  (* wires for every non-port net *)
  Netlist.iter_cells netlist (fun id c ->
      match c.Netlist.kind with
      | Netlist.Input | Netlist.Output -> ()
      | _ -> add "  wire n%d;\n" id);
  (* statements *)
  Netlist.iter_cells netlist (fun id c ->
      let pins () =
        String.concat ", " (net id :: List.map net (Array.to_list c.Netlist.fanins))
      in
      match c.Netlist.kind with
      | Netlist.Input -> ()
      | Netlist.Output ->
        add "  assign %s = %s;\n" (Netlist.label netlist id) (net c.Netlist.fanins.(0))
      | Netlist.Const b -> add "  assign n%d = 1'b%d;\n" id (if b then 1 else 0)
      | Netlist.Mux -> add "  EDU_MUX2 g%d (%s);\n" id (pins ())
      | Netlist.Dff -> add "  EDU_DFF g%d (%s);\n" id (pins ())
      | Netlist.Mapped m -> add "  %s g%d (%s);\n" m.Netlist.cell_name id (pins ())
      | k -> (
        match gate_keyword k with
        | Some kw -> add "  %s g%d (%s);\n" kw id (pins ())
        | None -> assert false));
  add "endmodule\n";
  Buffer.contents buffer

let write_file netlist ~path =
  let oc = open_out path in
  (try output_string oc (emit netlist)
   with e ->
     close_out oc;
     raise e);
  close_out oc

(* {1 Parsing} *)

type parse_error = { line : int; message : string }

exception Error of parse_error

let fail line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

type statement =
  | S_gate of { line : int; kind_name : string; out : string; pins : string list }
  | S_assign of { line : int; lhs : string; rhs : string }

let tokenize_line s =
  (* split an instantiation/assign into identifier-ish tokens *)
  let s =
    String.map (fun c -> if c = '(' || c = ')' || c = ',' || c = ';' || c = '=' then ' ' else c) s
  in
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let parse source =
  try
    let lines = String.split_on_char '\n' source in
    let module_name = ref "" in
    let inputs = ref [] (* (bus, width) in order *) in
    let outputs = ref [] in
    let cell_tables = Hashtbl.create 8 in
    let statements = ref [] in
    let strip s = String.trim s in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = strip raw in
        let line =
          (* pragma comments first, then drop other comments *)
          if String.length line >= 2 && String.sub line 0 2 = "//" then begin
            (match tokenize_line line with
            | [ "//"; "educhip"; "cell"; name; arity; table ] -> (
              match (int_of_string_opt arity, int_of_string_opt table) with
              | Some a, Some t -> Hashtbl.replace cell_tables name (a, t)
              | _ -> fail lineno "malformed educhip cell pragma")
            | _ -> ());
            ""
          end
          else line
        in
        if line <> "" then
          match tokenize_line line with
          | [] -> ()
          | "module" :: name :: _ -> module_name := name
          | "endmodule" :: _ -> ()
          | "input" :: rest | "output" :: rest -> (
            let is_input = String.length line >= 5 && String.sub line 0 5 = "input" in
            match rest with
            | [ range; name ] when String.length range > 0 && range.[0] = '[' -> (
              match String.split_on_char ':' (String.sub range 1 (String.length range - 2)) with
              | [ hi; _lo ] -> (
                match int_of_string_opt hi with
                | Some h ->
                  if is_input then inputs := (name, h + 1) :: !inputs
                  else outputs := (name, h + 1) :: !outputs
                | None -> fail lineno "bad port range")
              | _ -> fail lineno "bad port range")
            | [ name ] ->
              if is_input then inputs := (name, 1) :: !inputs
              else outputs := (name, 1) :: !outputs
            | _ -> fail lineno "unsupported port declaration")
          | "wire" :: _ -> ()
          | "assign" :: rest -> (
            match rest with
            | [ lhs; rhs ] -> statements := S_assign { line = lineno; lhs; rhs } :: !statements
            | _ -> fail lineno "unsupported assign")
          | kind_name :: _instance :: out :: pins ->
            statements := S_gate { line = lineno; kind_name; out; pins } :: !statements
          | [ _ ] | [ _; _ ] -> fail lineno "unsupported statement")
      lines;
    let inputs = List.rev !inputs and outputs = List.rev !outputs in
    let statements = List.rev !statements in
    if !module_name = "" then fail 0 "no module declaration";
    let netlist = Netlist.create ~name:!module_name in
    (* input ports become Input cells, bit 0 first *)
    let net_ids = Hashtbl.create 64 in
    List.iter
      (fun (bus, w) ->
        for i = 0 to w - 1 do
          let label = if w = 1 then bus else Printf.sprintf "%s[%d]" bus i in
          Hashtbl.replace net_ids label (Netlist.add_input netlist ~label)
        done)
      inputs;
    (* index defining statements by their output net *)
    let defs = Hashtbl.create 64 in
    List.iter
      (fun stmt ->
        match stmt with
        | S_gate { out; _ } -> Hashtbl.replace defs out stmt
        | S_assign { lhs; rhs; line } ->
          (* const assigns define internal nets; port assigns are outputs *)
          if rhs = "1'b0" || rhs = "1'b1" then Hashtbl.replace defs lhs stmt
          else if Hashtbl.mem defs lhs then fail line "duplicate net definition"
          else ())
      statements;
    let kind_of_name line name pins =
      match name with
      | "buf" -> Netlist.Buf
      | "not" -> Netlist.Not
      | "and" -> Netlist.And
      | "or" -> Netlist.Or
      | "xor" -> Netlist.Xor
      | "nand" -> Netlist.Nand
      | "nor" -> Netlist.Nor
      | "xnor" -> Netlist.Xnor
      | "EDU_MUX2" -> Netlist.Mux
      | "EDU_DFF" -> Netlist.Dff
      | other -> (
        match Hashtbl.find_opt cell_tables other with
        | Some (arity, table) ->
          if List.length pins <> arity then fail line "pin count mismatch on %s" other;
          Netlist.Mapped { Netlist.cell_name = other; arity; table }
        | None -> fail line "unknown cell %s (missing educhip pragma?)" other)
    in
    (* resolve nets to cell ids, creating cells fanins-first; flip-flops
       break combinational cycles by being created floating *)
    let pending_dffs = ref [] in
    let rec resolve line name =
      match Hashtbl.find_opt net_ids name with
      | Some id -> id
      | None -> (
        match Hashtbl.find_opt defs name with
        | None -> fail line "undefined net %s" name
        | Some (S_assign { lhs; rhs; line = _ }) ->
          let id = Netlist.add_const netlist (rhs = "1'b1") in
          Hashtbl.replace net_ids lhs id;
          id
        | Some (S_gate { line; kind_name; out; pins }) ->
          if kind_name = "EDU_DFF" then begin
            let q = Netlist.add_dff_floating netlist in
            Hashtbl.replace net_ids out q;
            (match pins with
            | [ d ] -> pending_dffs := (q, d, line) :: !pending_dffs
            | _ -> fail line "EDU_DFF needs exactly one data pin");
            q
          end
          else begin
            let kind = kind_of_name line kind_name pins in
            let fanins = Array.of_list (List.map (resolve line) pins) in
            let id = Netlist.add_gate netlist kind fanins in
            Hashtbl.replace net_ids out id;
            id
          end)
    in
    (* force every defined net into existence *)
    List.iter
      (fun stmt ->
        match stmt with
        | S_gate { line; out; _ } -> ignore (resolve line out)
        | S_assign { line; lhs; rhs } ->
          if rhs = "1'b0" || rhs = "1'b1" then ignore (resolve line lhs))
      statements;
    (* connect flip-flops now that all nets exist *)
    List.iter
      (fun (q, d, line) -> Netlist.connect_dff netlist q ~d:(resolve line d))
      (List.rev !pending_dffs);
    (* output ports, in declaration order bit 0 first *)
    let port_assign = Hashtbl.create 16 in
    List.iter
      (fun stmt ->
        match stmt with
        | S_assign { lhs; rhs; line } when not (rhs = "1'b0" || rhs = "1'b1") ->
          Hashtbl.replace port_assign lhs (rhs, line)
        | _ -> ())
      statements;
    List.iter
      (fun (bus, w) ->
        for i = 0 to w - 1 do
          let label = if w = 1 then bus else Printf.sprintf "%s[%d]" bus i in
          match Hashtbl.find_opt port_assign label with
          | Some (rhs, line) -> ignore (Netlist.add_output netlist ~label (resolve line rhs))
          | None -> fail 0 "output %s is never assigned" label
        done)
      outputs;
    Ok netlist
  with
  | Error e -> Result.Error e
  | Invalid_argument message -> Result.Error { line = 0; message }

let parse_file ~path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  parse source

let pp_parse_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message
