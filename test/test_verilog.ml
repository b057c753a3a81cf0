module Netlist = Educhip_netlist.Netlist
module Verilog = Educhip_netlist.Verilog
module Cec = Educhip_cec.Cec
module Synth = Educhip_synth.Synth
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs

let check = Alcotest.check

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_emit_structure () =
  let nl = Designs.netlist (Designs.find "adder8") in
  let src = Verilog.emit nl in
  check Alcotest.bool "module header" true (contains "module adder8 (a, b, sum);" src);
  check Alcotest.bool "input vector" true (contains "input [7:0] a;" src);
  check Alcotest.bool "output vector" true (contains "output [8:0] sum;" src);
  check Alcotest.bool "gates present" true (contains "xor g" src);
  check Alcotest.bool "assign outputs" true (contains "assign sum[0] = " src);
  check Alcotest.bool "endmodule" true (contains "endmodule" src)

let test_emit_mapped_pragma () =
  let node = Pdk.find_node "edu130" in
  let nl = Designs.netlist (Designs.find "adder8") in
  let mapped, _ = Synth.synthesize nl ~node Synth.default_options in
  let src = Verilog.emit mapped in
  check Alcotest.bool "pragma present" true (contains "// educhip cell " src);
  check Alcotest.bool "mapped instance" true
    (contains "_X1 g" src || contains "_X2 g" src || contains "_X4 g" src)

let round_trip name =
  let nl = Designs.netlist (Designs.find name) in
  match Verilog.parse (Verilog.emit nl) with
  | Result.Error e -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Verilog.pp_parse_error e)
  | Ok parsed ->
    check Alcotest.string "module name preserved" (Netlist.name nl) (Netlist.name parsed);
    check Alcotest.(list string) "valid" []
      (List.map
         (fun v -> Format.asprintf "%a" Netlist.pp_violation v)
         (Netlist.validate parsed));
    (match Cec.check nl parsed with
    | Cec.Equivalent -> ()
    | v -> Alcotest.failf "%s not equivalent after round trip: %s" name
             (Format.asprintf "%a" Cec.pp_verdict v))

let test_round_trip_primitive () =
  List.iter round_trip [ "adder8"; "alu8"; "prio16"; "xbar4x8" ]

let test_round_trip_sequential () = List.iter round_trip [ "gray8"; "lfsr16"; "fir4x8"; "acc_cpu8" ]

let test_round_trip_mapped () =
  let node = Pdk.find_node "edu130" in
  List.iter
    (fun name ->
      let nl = Designs.netlist (Designs.find name) in
      let mapped, _ = Synth.synthesize nl ~node Synth.default_options in
      match Verilog.parse (Verilog.emit mapped) with
      | Result.Error e ->
        Alcotest.failf "%s: %s" name (Format.asprintf "%a" Verilog.pp_parse_error e)
      | Ok parsed -> (
        match Cec.check mapped parsed with
        | Cec.Equivalent -> ()
        | v ->
          Alcotest.failf "%s mapped round trip: %s" name
            (Format.asprintf "%a" Cec.pp_verdict v)))
    [ "adder8"; "gray8"; "cmp16" ]

let test_round_trip_constants () =
  let nl = Netlist.create ~name:"consts" in
  let a = Netlist.add_input nl ~label:"a" in
  let one = Netlist.add_const nl true in
  let g = Netlist.add_gate nl Netlist.Xor [| a; one |] in
  ignore (Netlist.add_output nl ~label:"y" g);
  match Verilog.parse (Verilog.emit nl) with
  | Result.Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Verilog.pp_parse_error e)
  | Ok parsed -> check Alcotest.bool "equivalent" true (Cec.check nl parsed = Cec.Equivalent)

let test_parse_errors () =
  (match Verilog.parse "wire x;\n" with
  | Result.Error e -> check Alcotest.bool "no module" true (contains "module" e.Verilog.message)
  | Ok _ -> Alcotest.fail "expected error");
  (match Verilog.parse "module m (y);\n  output y;\n  UNKNOWN_CELL g1 (n1, n2);\n  assign y = n1;\nendmodule\n" with
  | Result.Error e -> check Alcotest.bool "unknown cell" true (contains "unknown cell" e.Verilog.message)
  | Ok _ -> Alcotest.fail "expected error");
  match Verilog.parse "module m (y);\n  output y;\nendmodule\n" with
  | Result.Error e ->
    check Alcotest.bool "unassigned output" true (contains "never assigned" e.Verilog.message)
  | Ok _ -> Alcotest.fail "expected error"

let test_file_io () =
  let nl = Designs.netlist (Designs.find "gray8") in
  let path = Filename.temp_file "educhip" ".v" in
  Verilog.write_file nl ~path;
  (match Verilog.parse_file ~path with
  | Ok parsed -> check Alcotest.bool "file round trip" true (Cec.check nl parsed = Cec.Equivalent)
  | Result.Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Verilog.pp_parse_error e));
  Sys.remove path;
  Alcotest.check_raises "missing file"
    (Sys_error (path ^ ": No such file or directory"))
    (fun () -> ignore (Verilog.parse_file ~path))

let prop_random_round_trip =
  QCheck.Test.make ~name:"verilog round trip preserves semantics (random designs)"
    ~count:25 QCheck.small_nat (fun seed ->
      let h = Gen.random_design seed in
      match Verilog.parse (Verilog.emit h.Gen.netlist) with
      | Result.Error _ -> false
      | Ok parsed ->
        Gen.equivalent ~seed:(seed + 555) h.Gen.netlist parsed
          ~input_widths:h.Gen.input_widths ~output_names:h.Gen.output_names)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_round_trip ]

let suite =
  [
    Alcotest.test_case "emit structure" `Quick test_emit_structure;
    Alcotest.test_case "emit mapped pragma" `Quick test_emit_mapped_pragma;
    Alcotest.test_case "round trip primitive" `Quick test_round_trip_primitive;
    Alcotest.test_case "round trip sequential" `Quick test_round_trip_sequential;
    Alcotest.test_case "round trip mapped" `Quick test_round_trip_mapped;
    Alcotest.test_case "round trip constants" `Quick test_round_trip_constants;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "file io" `Quick test_file_io;
  ]
  @ qsuite
