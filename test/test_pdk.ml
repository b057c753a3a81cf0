module Pdk = Educhip_pdk.Pdk

let check = Alcotest.check

let test_node_inventory () =
  check Alcotest.int "eleven nodes" 11 (List.length Pdk.nodes);
  let names = List.map (fun n -> n.Pdk.node_name) Pdk.nodes in
  check Alcotest.bool "edu180 first" true (List.hd names = "edu180");
  check Alcotest.bool "edu2 last" true (List.nth names 10 = "edu2")

let test_find_node () =
  let n = Pdk.find_node "edu130" in
  check (Alcotest.float 1e-9) "feature" 130.0 n.Pdk.feature_nm;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Pdk.find_node "edu3000"))

let test_open_nodes () =
  let open_names = List.map (fun n -> n.Pdk.node_name) (Pdk.open_nodes ()) in
  check Alcotest.(list string) "open pdk set" [ "edu180"; "edu130" ] open_names

let test_access_tightens () =
  (* advanced nodes must not be easier to access than mature ones *)
  let rank = function
    | Pdk.Open_pdk -> 0
    | Pdk.Nda -> 1
    | Pdk.Nda_with_track_record -> 2
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      rank a.Pdk.access <= rank b.Pdk.access && monotone rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "monotone access" true (monotone Pdk.nodes)

let test_cost_curves_monotone () =
  let rec monotone f = function
    | a :: (b :: _ as rest) -> f a < f b && monotone f rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "mpw cost rises" true
    (monotone (fun n -> n.Pdk.mpw_cost_eur_per_mm2) Pdk.nodes);
  check Alcotest.bool "mask cost rises" true
    (monotone (fun n -> n.Pdk.full_mask_cost_eur) Pdk.nodes);
  check Alcotest.bool "turnaround rises" true
    (monotone (fun n -> n.Pdk.turnaround_weeks) Pdk.nodes)

let test_library_contents () =
  let node = Pdk.find_node "edu130" in
  let lib = Pdk.library node in
  check Alcotest.bool "nontrivial library" true (List.length lib >= 20);
  let names = List.map (fun c -> c.Pdk.cell_name) lib in
  List.iter
    (fun required ->
      check Alcotest.bool (required ^ " present") true (List.mem required names))
    [ "INV_X1"; "INV_X4"; "NAND2_X1"; "XOR2_X1"; "MUX2_X1"; "AOI21_X1"; "DFF_X1" ]

let test_cell_tables () =
  let node = Pdk.find_node "edu130" in
  check Alcotest.int "INV table" 0b01 (Pdk.find_cell node "INV_X1").Pdk.table;
  check Alcotest.int "NAND2 table" 0b0111 (Pdk.find_cell node "NAND2_X1").Pdk.table;
  check Alcotest.int "NOR2 table" 0b0001 (Pdk.find_cell node "NOR2_X1").Pdk.table;
  check Alcotest.int "XOR2 table" 0b0110 (Pdk.find_cell node "XOR2_X1").Pdk.table;
  check Alcotest.int "AND2 table" 0b1000 (Pdk.find_cell node "AND2_X1").Pdk.table;
  (* MUX2 pins sel,a,b: out = sel ? b : a *)
  let mux = Pdk.find_cell node "MUX2_X1" in
  for i = 0 to 7 do
    let sel = i land 1 = 1 and a = (i lsr 1) land 1 = 1 and b = (i lsr 2) land 1 = 1 in
    let expected = if sel then b else a in
    check Alcotest.bool "mux table" expected ((mux.Pdk.table lsr i) land 1 = 1)
  done

let test_scaling_area_delay () =
  let big = Pdk.find_node "edu180" and small = Pdk.find_node "edu28" in
  let a180 = (Pdk.find_cell big "NAND2_X1").Pdk.area in
  let a28 = (Pdk.find_cell small "NAND2_X1").Pdk.area in
  check Alcotest.bool "area shrinks quadratically" true (a28 < a180 /. 20.0);
  let d180 = (Pdk.find_cell big "NAND2_X1").Pdk.intrinsic_ps in
  let d28 = (Pdk.find_cell small "NAND2_X1").Pdk.intrinsic_ps in
  check Alcotest.bool "delay shrinks" true (d28 < d180);
  let l180 = (Pdk.find_cell big "NAND2_X1").Pdk.leakage_nw in
  let l28 = (Pdk.find_cell small "NAND2_X1").Pdk.leakage_nw in
  check Alcotest.bool "leakage grows" true (l28 > l180)

let test_drive_strengths () =
  let node = Pdk.find_node "edu130" in
  let x1 = Pdk.find_cell node "INV_X1" and x4 = Pdk.find_cell node "INV_X4" in
  check Alcotest.bool "x4 bigger" true (x4.Pdk.area > x1.Pdk.area);
  check Alcotest.bool "x4 drives better" true (x4.Pdk.load_ps_per_ff < x1.Pdk.load_ps_per_ff);
  check Alcotest.int "same function" x1.Pdk.table x4.Pdk.table

let test_dff () =
  let node = Pdk.find_node "edu130" in
  let dff = Pdk.dff_cell node in
  check Alcotest.bool "sequential" true dff.Pdk.sequential;
  check Alcotest.bool "not in combinational set" true
    (not (List.exists (fun c -> c.Pdk.sequential) (Pdk.combinational_cells node)))

let test_wire_model () =
  let node = Pdk.find_node "edu130" in
  let d_short = Pdk.wire_delay_ps node ~length_um:10.0 ~load_ff:2.0 in
  let d_long = Pdk.wire_delay_ps node ~length_um:100.0 ~load_ff:2.0 in
  check Alcotest.bool "longer is slower" true (d_long > d_short);
  check Alcotest.bool "positive" true (d_short > 0.0);
  check (Alcotest.float 1e-9) "cap linear" (10.0 *. node.Pdk.wire_c_ff_per_um)
    (Pdk.wire_cap_ff node ~length_um:10.0)

let test_all_two_input_functions_coverable () =
  (* every nonconstant, genuinely-2-input boolean function must be realizable
     by some cell under pin permutation and input phase — the guarantee the
     mapper's fallback relies on *)
  let node = Pdk.find_node "edu130" in
  let cells = List.filter (fun c -> c.Pdk.arity = 2) (Pdk.combinational_cells node) in
  let achievable = Hashtbl.create 32 in
  List.iter
    (fun c ->
      List.iter
        (fun (s0, s1) ->
          for ph = 0 to 3 do
            let t = ref 0 in
            for m = 0 to 3 do
              let v0 = (m lsr s0) land 1 = 1 in
              let v0 = if ph land 1 = 1 then not v0 else v0 in
              let v1 = (m lsr s1) land 1 = 1 in
              let v1 = if ph land 2 = 2 then not v1 else v1 in
              let pin = (if v0 then 1 else 0) lor if v1 then 2 else 0 in
              if (c.Pdk.table lsr pin) land 1 = 1 then t := !t lor (1 lsl m)
            done;
            Hashtbl.replace achievable !t ()
          done)
        [ (0, 1); (1, 0) ])
    cells;
  (* AND with arbitrary input phases: tables 8,4,2,1 (single minterm) *)
  List.iter
    (fun t ->
      check Alcotest.bool (Printf.sprintf "table %d" t) true (Hashtbl.mem achievable t))
    [ 0b1000; 0b0100; 0b0010; 0b0001; 0b0111; 0b1011; 0b1101; 0b1110; 0b0110; 0b1001 ]

(* A copy of a node is not one of the [Pdk.nodes] constants, so it takes the
   build-per-call path: the shared tables must match it cell for cell. *)
let test_tables_match_rebuild () =
  List.iter
    (fun n ->
      let copy = { n with Pdk.node_name = n.Pdk.node_name } in
      let lib = Pdk.library n in
      check Alcotest.bool (n.Pdk.node_name ^ " library") true (lib = Pdk.library copy);
      check Alcotest.bool (n.Pdk.node_name ^ " combinational") true
        (Pdk.combinational_cells n = Pdk.combinational_cells copy);
      List.iter
        (fun c ->
          let name = c.Pdk.cell_name in
          check Alcotest.bool (n.Pdk.node_name ^ " " ^ name) true
            (Pdk.find_cell n name = Pdk.find_cell copy name))
        lib;
      Alcotest.check_raises "unknown cell" Not_found (fun () ->
          ignore (Pdk.find_cell n "NAND9_X1"));
      Alcotest.check_raises "unknown cell, copy" Not_found (fun () ->
          ignore (Pdk.find_cell copy "NAND9_X1")))
    Pdk.nodes

let test_find_cell_shared () =
  let n = Pdk.find_node "edu28" in
  check Alcotest.bool "same cell twice" true
    (Pdk.find_cell n "NAND2_X2" == Pdk.find_cell n "NAND2_X2");
  check Alcotest.bool "same library twice" true (Pdk.library n == Pdk.library n)

(* Guards against the per-call rebuild coming back: a lookup on a constant
   node is a hash probe and allocates nothing. *)
let test_find_cell_allocation_free () =
  let n = Pdk.find_node "edu130" in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Pdk.find_cell n "DFF_X1"))
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for %d calls" words calls)
    true
    (words < float_of_int calls)

let test_tables_across_domains () =
  let resolve () =
    List.map
      (fun n -> List.map (fun c -> Pdk.find_cell n c.Pdk.cell_name) (Pdk.library n))
      Pdk.nodes
  in
  let expected = resolve () in
  let domains = List.init 4 (fun _ -> Domain.spawn resolve) in
  List.iter
    (fun d ->
      check Alcotest.bool "same shared cells as main domain" true
        (List.for_all2 (List.for_all2 ( == )) (Domain.join d) expected))
    domains

let suite =
  [
    Alcotest.test_case "node inventory" `Quick test_node_inventory;
    Alcotest.test_case "find node" `Quick test_find_node;
    Alcotest.test_case "open nodes" `Quick test_open_nodes;
    Alcotest.test_case "access tightens with scaling" `Quick test_access_tightens;
    Alcotest.test_case "cost curves monotone" `Quick test_cost_curves_monotone;
    Alcotest.test_case "library contents" `Quick test_library_contents;
    Alcotest.test_case "cell truth tables" `Quick test_cell_tables;
    Alcotest.test_case "scaling laws" `Quick test_scaling_area_delay;
    Alcotest.test_case "drive strengths" `Quick test_drive_strengths;
    Alcotest.test_case "dff" `Quick test_dff;
    Alcotest.test_case "wire model" `Quick test_wire_model;
    Alcotest.test_case "2-input completeness" `Quick test_all_two_input_functions_coverable;
    Alcotest.test_case "tables match rebuild" `Quick test_tables_match_rebuild;
    Alcotest.test_case "find_cell shares cells" `Quick test_find_cell_shared;
    Alcotest.test_case "find_cell allocation-free" `Quick test_find_cell_allocation_free;
    Alcotest.test_case "tables across domains" `Quick test_tables_across_domains;
  ]
