module Netlist = Educhip_netlist.Netlist

let check = Alcotest.check

(* A tiny full adder built by hand: depth-3 combinational logic. *)
let full_adder () =
  let n = Netlist.create ~name:"fa" in
  let a = Netlist.add_input n ~label:"a" in
  let b = Netlist.add_input n ~label:"b" in
  let cin = Netlist.add_input n ~label:"cin" in
  let axb = Netlist.add_gate n Netlist.Xor [| a; b |] in
  let sum = Netlist.add_gate n Netlist.Xor [| axb; cin |] in
  let ab = Netlist.add_gate n Netlist.And [| a; b |] in
  let cx = Netlist.add_gate n Netlist.And [| axb; cin |] in
  let cout = Netlist.add_gate n Netlist.Or [| ab; cx |] in
  ignore (Netlist.add_output n ~label:"sum" sum);
  ignore (Netlist.add_output n ~label:"cout" cout);
  n

let test_construction () =
  let n = full_adder () in
  check Alcotest.int "cells" 10 (Netlist.cell_count n);
  check Alcotest.int "inputs" 3 (List.length (Netlist.inputs n));
  check Alcotest.int "outputs" 2 (List.length (Netlist.outputs n));
  check Alcotest.int "gates" 5 (Netlist.gate_count n);
  check Alcotest.int "no dffs" 0 (List.length (Netlist.dffs n))

let test_depth () =
  let n = full_adder () in
  (* longest path: a -> xor -> and(cx) -> or -> cout = 3 gates *)
  check Alcotest.int "depth" 3 (Netlist.logic_depth n)

let test_validate_clean () =
  let n = full_adder () in
  check Alcotest.int "no violations" 0 (List.length (Netlist.validate n))

let test_arity_errors () =
  let n = Netlist.create ~name:"bad" in
  let a = Netlist.add_input n ~label:"a" in
  Alcotest.check_raises "and arity"
    (Invalid_argument "Netlist.add_gate: kind needs 2 fanins, got 1") (fun () ->
      ignore (Netlist.add_gate n Netlist.And [| a |]));
  Alcotest.check_raises "dangling"
    (Invalid_argument "Netlist.add_gate: fanin 99 out of range") (fun () ->
      ignore (Netlist.add_gate n Netlist.Not [| 99 |]));
  Alcotest.check_raises "input via add_gate"
    (Invalid_argument "Netlist.add_gate: use add_input/add_output/add_const") (fun () ->
      ignore (Netlist.add_gate n Netlist.Input [||]))

let test_fanout_counts () =
  let n = full_adder () in
  let counts = Netlist.fanout_counts n in
  (* a feeds xor and and -> fanout 2 *)
  check Alcotest.int "a fanout" 2 counts.(0);
  (* sum (id 4) feeds only the output marker *)
  check Alcotest.int "sum fanout" 1 counts.(4)

let test_dff_boundary_depth () =
  (* logic -> dff -> logic: depth counts the longest *combinational* span *)
  let n = Netlist.create ~name:"seq" in
  let a = Netlist.add_input n ~label:"a" in
  let b = Netlist.add_input n ~label:"b" in
  let g1 = Netlist.add_gate n Netlist.And [| a; b |] in
  let g2 = Netlist.add_gate n Netlist.Or [| g1; b |] in
  let q = Netlist.add_dff n ~d:g2 in
  let g3 = Netlist.add_gate n Netlist.Not [| q |] in
  ignore (Netlist.add_output n ~label:"y" g3);
  check Alcotest.int "depth cut at register" 2 (Netlist.logic_depth n);
  check Alcotest.int "one dff" 1 (List.length (Netlist.dffs n))

let test_dff_feedback_legal () =
  (* a register feeding its own D through logic is legal (no comb cycle) *)
  let n = Netlist.create ~name:"loop" in
  let q = Netlist.add_dff_floating n in
  let inv = Netlist.add_gate n Netlist.Not [| q |] in
  Netlist.connect_dff n q ~d:inv;
  ignore (Netlist.add_output n ~label:"y" q);
  check Alcotest.int "valid" 0 (List.length (Netlist.validate n))

let test_connect_dff_errors () =
  let n = Netlist.create ~name:"c" in
  let a = Netlist.add_input n ~label:"a" in
  let q = Netlist.add_dff n ~d:a in
  Alcotest.check_raises "already connected"
    (Invalid_argument "Netlist.connect_dff: dff already connected") (fun () ->
      Netlist.connect_dff n q ~d:a);
  Alcotest.check_raises "not a dff"
    (Invalid_argument "Netlist.connect_dff: not a dff") (fun () ->
      Netlist.connect_dff n a ~d:a)

let test_floating_dff_invalid () =
  let n = Netlist.create ~name:"f" in
  let q = Netlist.add_dff_floating n in
  ignore (Netlist.add_output n ~label:"y" q);
  check Alcotest.bool "floating dff caught" true (Netlist.validate n <> [])

let test_combinational_cycle_detected () =
  (* two NOTs in a loop: built via a mapped-cell-free trick is impossible
     through the safe constructors, so use connect on a dff... instead build
     the cycle through gates by constructing fanins out of order: a gate
     cannot reference a later gate, so a purely combinational cycle cannot
     be constructed through this API at all. Verify the API guarantee. *)
  let n = Netlist.create ~name:"acyclic-by-construction" in
  let a = Netlist.add_input n ~label:"a" in
  let g = Netlist.add_gate n Netlist.Not [| a |] in
  ignore (Netlist.add_output n ~label:"y" g);
  check Alcotest.bool "acyclic" false
    (List.exists
       (function Netlist.Combinational_cycle _ -> true | _ -> false)
       (Netlist.validate n))

let test_count_by_kind () =
  let n = full_adder () in
  let census = Netlist.count_by_kind n in
  check Alcotest.(option int) "xor count" (Some 2) (List.assoc_opt "xor" census);
  check Alcotest.(option int) "and count" (Some 2) (List.assoc_opt "and" census);
  check Alcotest.(option int) "or count" (Some 1) (List.assoc_opt "or" census);
  check Alcotest.(option int) "input count" (Some 3) (List.assoc_opt "input" census)

let test_mapped_cell () =
  let n = Netlist.create ~name:"m" in
  let a = Netlist.add_input n ~label:"a" in
  let b = Netlist.add_input n ~label:"b" in
  let nand2 = Netlist.Mapped { Netlist.cell_name = "NAND2_X1"; arity = 2; table = 0b0111 } in
  let g = Netlist.add_gate n nand2 [| a; b |] in
  ignore (Netlist.add_output n ~label:"y" g);
  check Alcotest.int "valid" 0 (List.length (Netlist.validate n));
  check Alcotest.string "kind name" "NAND2_X1" (Netlist.kind_name (Netlist.kind n g))

let test_mapped_arity_bounds () =
  let n = Netlist.create ~name:"m" in
  let a = Netlist.add_input n ~label:"a" in
  Alcotest.check_raises "arity 0 mapped"
    (Invalid_argument "Netlist.add_gate: mapped arity must be in 1..6") (fun () ->
      ignore
        (Netlist.add_gate n
           (Netlist.Mapped { Netlist.cell_name = "BAD"; arity = 0; table = 0 })
           [||]));
  ignore a

let test_kind_tables () =
  (* the truth tables every SAT encoder and fault simulator consumes; the
     Mux entry is a regression test for a real bug (the selector must be
     bit 0 of the minterm index, giving 0xE4, not the 0xCA of
     high-bit-selector conventions) *)
  let check_table kind expected =
    match Netlist.kind_table kind with
    | Some (_, t) -> check Alcotest.int (Netlist.kind_name kind) expected t
    | None -> Alcotest.fail "expected a table"
  in
  check_table Netlist.Buf 0b10;
  check_table Netlist.Not 0b01;
  check_table Netlist.And 0b1000;
  check_table Netlist.Or 0b1110;
  check_table Netlist.Xor 0b0110;
  check_table Netlist.Nand 0b0111;
  check_table Netlist.Nor 0b0001;
  check_table Netlist.Xnor 0b1001;
  check_table Netlist.Mux 0xE4;
  check Alcotest.bool "no table for dff" true (Netlist.kind_table Netlist.Dff = None);
  (* tables must agree with the simulator on every kind and valuation *)
  List.iter
    (fun kind ->
      match Netlist.kind_table kind with
      | None -> ()
      | Some (arity, table) ->
        let nl = Netlist.create ~name:"tt" in
        let ins = Array.init arity (fun i -> Netlist.add_input nl ~label:(Printf.sprintf "i%d" i)) in
        let g = Netlist.add_gate nl kind ins in
        ignore (Netlist.add_output nl ~label:"y" g);
        let sim = Educhip_sim.Sim.create nl in
        for v = 0 to (1 lsl arity) - 1 do
          Array.iteri (fun i id -> Educhip_sim.Sim.set_input sim id ((v lsr i) land 1 = 1)) ins;
          Educhip_sim.Sim.eval sim;
          check Alcotest.int
            (Printf.sprintf "%s @ %d" (Netlist.kind_name kind) v)
            ((table lsr v) land 1)
            (Educhip_sim.Sim.read_bus sim "y")
        done)
    [ Netlist.Buf; Netlist.Not; Netlist.And; Netlist.Or; Netlist.Xor; Netlist.Nand;
      Netlist.Nor; Netlist.Xnor; Netlist.Mux ]

(* An independent statement of the same semantics: the edu130 cell each
   primitive maps to carries a table computed from its PDK template's own
   function, not from [kind_table]. *)
let test_kind_tables_match_pdk () =
  let module Pdk = Educhip_pdk.Pdk in
  let node = Pdk.find_node "edu130" in
  List.iter
    (fun (kind, cell_name) ->
      let cell = Pdk.find_cell node cell_name in
      check
        Alcotest.(option (pair int int))
        (Netlist.kind_name kind ^ " = " ^ cell_name)
        (Some (cell.Pdk.arity, cell.Pdk.table))
        (Netlist.kind_table kind))
    [
      (Netlist.Not, "INV_X1");
      (Netlist.Buf, "BUF_X1");
      (Netlist.And, "AND2_X1");
      (Netlist.Or, "OR2_X1");
      (Netlist.Xor, "XOR2_X1");
      (Netlist.Nand, "NAND2_X1");
      (Netlist.Nor, "NOR2_X1");
      (Netlist.Xnor, "XNOR2_X1");
      (Netlist.Mux, "MUX2_X1");
    ]

let test_summary_format () =
  let n = full_adder () in
  let s = Format.asprintf "%a" Netlist.pp_summary n in
  check Alcotest.bool "mentions name" true
    (String.length s >= 10 && String.sub s 0 10 = "netlist fa")

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "logic depth" `Quick test_depth;
    Alcotest.test_case "validate clean" `Quick test_validate_clean;
    Alcotest.test_case "arity errors" `Quick test_arity_errors;
    Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
    Alcotest.test_case "dff cuts depth" `Quick test_dff_boundary_depth;
    Alcotest.test_case "dff feedback legal" `Quick test_dff_feedback_legal;
    Alcotest.test_case "connect_dff errors" `Quick test_connect_dff_errors;
    Alcotest.test_case "floating dff invalid" `Quick test_floating_dff_invalid;
    Alcotest.test_case "no comb cycles by construction" `Quick test_combinational_cycle_detected;
    Alcotest.test_case "count by kind" `Quick test_count_by_kind;
    Alcotest.test_case "mapped cell" `Quick test_mapped_cell;
    Alcotest.test_case "mapped arity bounds" `Quick test_mapped_arity_bounds;
    Alcotest.test_case "kind tables match simulator" `Quick test_kind_tables;
    Alcotest.test_case "kind tables match pdk cells" `Quick test_kind_tables_match_pdk;
    Alcotest.test_case "summary format" `Quick test_summary_format;
  ]
