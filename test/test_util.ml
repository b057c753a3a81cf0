module Rng = Educhip_util.Rng
module Pqueue = Educhip_util.Pqueue
module Digraph = Educhip_util.Digraph
module Stats = Educhip_util.Stats
module Table = Educhip_util.Table
module Crc32 = Educhip_util.Crc32

let check = Alcotest.check

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 16 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 16 (fun _ -> Rng.int b 1_000_000) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check Alcotest.bool "in range" true (v >= 0 && v < 10);
    let w = Rng.int_in rng (-5) 5 in
    check Alcotest.bool "int_in range" true (w >= -5 && w <= 5);
    let f = Rng.float rng 2.5 in
    check Alcotest.bool "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_invalid () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "int_in bad" (Invalid_argument "Rng.int_in: hi < lo") (fun () ->
      ignore (Rng.int_in rng 3 2))

let test_rng_bernoulli_mean () =
  let rng = Rng.create ~seed:11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "mean near 0.3" true (Float.abs (mean -. 0.3) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:12 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  check Alcotest.bool "mean near 5" true (Float.abs (Stats.mean samples -. 5.0) < 0.1);
  check Alcotest.bool "stddev near 2" true (Float.abs (Stats.stddev samples -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Rng.exponential rng ~rate:4.0) in
  check Alcotest.bool "mean near 1/4" true (Float.abs (Stats.mean samples -. 0.25) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  let xs = List.init 8 (fun _ -> Rng.int a 1000) in
  let ys = List.init 8 (fun _ -> Rng.int b 1000) in
  check Alcotest.bool "decorrelated" true (xs <> ys)

(* The exact SplitMix64 stream, recorded before [Rng] was made
   allocation-free. Placement, fault plans and every seeded experiment
   replay this stream: a change to [Rng] must leave it untouched. *)
let test_rng_stream_pinned () =
  let rng = Rng.create ~seed:42 in
  check
    Alcotest.(list int64)
    "bits64, seed 42"
    [
      -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L;
    ]
    (List.init 8 (fun _ -> Rng.bits64 rng));
  let rng = Rng.create ~seed:42 in
  check
    Alcotest.(list int)
    "int 1000, seed 42" [ 706; 145; 929; 882; 625; 531; 462; 954 ]
    (List.init 8 (fun _ -> Rng.int rng 1000));
  check
    Alcotest.(list string)
    "float 1.0 after the ints"
    [
      "0x1.5c16e1dc2cf5ep-2"; "0x1.3ca9ae7052feep-1"; "0x1.a3a39253bad8cp-3";
      "0x1.f8d2283914594p-2";
    ]
    (List.init 4 (fun _ -> Printf.sprintf "%h" (Rng.float rng 1.0)));
  let c = Rng.copy rng in
  check Alcotest.int64 "copy continues the stream" (-8976257307478440218L) (Rng.bits64 c);
  check Alcotest.int64 "original unaffected by copy" (-8976257307478440218L)
    (Rng.bits64 rng);
  let s = Rng.split rng in
  check Alcotest.int64 "split child" (-3488306291974584913L) (Rng.bits64 s);
  check Alcotest.int64 "parent after split" (-6176718654468026660L) (Rng.bits64 rng)

(* The placer rejects a move without drawing on [exp] when the exponent
   is below -746: that is exact only while [exp] underflows to 0 there. *)
let test_exp_underflow_premise () =
  check Alcotest.bool "exp (-746) = 0" true (exp (-746.0) = 0.0);
  check Alcotest.bool "exp (-745) > 0" true (exp (-745.0) > 0.0)

(* {1 Pqueue} *)

let test_pqueue_sorted_pops () =
  let q = Pqueue.create () in
  let rng = Rng.create ~seed:5 in
  let items = List.init 200 (fun i -> (Rng.float rng 100.0, i)) in
  List.iter (fun (p, v) -> Pqueue.push q ~priority:p v) items;
  let rec drain last acc =
    match Pqueue.pop q with
    | None -> List.rev acc
    | Some v ->
      let p = List.assoc v (List.map (fun (p, v) -> (v, p)) items) in
      Alcotest.check Alcotest.bool "non-decreasing" true (p >= last);
      drain p (v :: acc)
  in
  let popped = drain neg_infinity [] in
  check Alcotest.int "all popped" 200 (List.length popped)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q ~priority:1.0 "a";
  Pqueue.push q ~priority:1.0 "b";
  Pqueue.push q ~priority:1.0 "c";
  check Alcotest.(option string) "first" (Some "a") (Pqueue.pop q);
  check Alcotest.(option string) "second" (Some "b") (Pqueue.pop q);
  check Alcotest.(option string) "third" (Some "c") (Pqueue.pop q)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  check Alcotest.(option int) "empty peek" None (Pqueue.peek q);
  Pqueue.push q ~priority:2.0 20;
  Pqueue.push q ~priority:1.0 10;
  check Alcotest.(option int) "peek min" (Some 10) (Pqueue.peek q);
  check Alcotest.int "length" 2 (Pqueue.length q);
  Pqueue.clear q;
  check Alcotest.bool "cleared" true (Pqueue.is_empty q)

(* Equal priorities pop in insertion order while the heap grows past its
   initial capacity with pops interleaved, and again after [clear]. *)
let test_pqueue_ties_across_growth () =
  let q = Pqueue.create () in
  let round () =
    let popped = ref [] in
    let pop () = popped := Pqueue.pop_exn q :: !popped in
    for i = 0 to 39 do
      Pqueue.push q ~priority:(if i mod 3 = 0 then 1.0 else 2.0) i;
      if i mod 5 = 4 then pop ()
    done;
    while not (Pqueue.is_empty q) do
      pop ()
    done;
    List.rev !popped
  in
  (* the interleaved pops take the earliest 1.0 entry present, else the
     earliest 2.0 one; the drain then empties both classes in order *)
  let expected =
    let ones = List.filter (fun i -> i mod 3 = 0) (List.init 40 Fun.id) in
    let early = [ 0; 3; 6; 9; 12; 15; 18; 21 ] in
    early
    @ List.filter (fun i -> not (List.mem i early)) ones
    @ List.filter (fun i -> i mod 3 <> 0) (List.init 40 Fun.id)
  in
  check Alcotest.(list int) "insertion order" expected (round ());
  Pqueue.push q ~priority:0.5 (-1);
  Pqueue.clear q;
  check Alcotest.(list int) "insertion order after clear" expected (round ())

let prop_pqueue_heap =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:100
    QCheck.(list (pair (float_range 0.0 1000.0) small_int))
    (fun items ->
      let q = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.push q ~priority:p v) items;
      let rec drain last =
        match Pqueue.peek_priority q with
        | None -> true
        | Some p ->
          ignore (Pqueue.pop_exn q);
          p >= last && drain p
      in
      drain neg_infinity)

(* {1 Digraph} *)

let diamond () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  g

let test_digraph_topo () =
  let g = diamond () in
  match Digraph.topological_order g with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some order ->
    let position = Array.make 4 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    check Alcotest.bool "0 before 1" true (position.(0) < position.(1));
    check Alcotest.bool "0 before 2" true (position.(0) < position.(2));
    check Alcotest.bool "1 before 3" true (position.(1) < position.(3));
    check Alcotest.bool "2 before 3" true (position.(2) < position.(3))

let test_digraph_cycle () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 0;
  check Alcotest.bool "cycle detected" true (Digraph.has_cycle g);
  check Alcotest.bool "no topo order" true (Digraph.topological_order g = None);
  check Alcotest.bool "no levels" true (Digraph.longest_path_levels g = None)

let test_digraph_levels () =
  let g = diamond () in
  match Digraph.longest_path_levels g with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some levels -> check Alcotest.(array int) "levels" [| 0; 1; 1; 2 |] levels

let test_digraph_degrees () =
  let g = diamond () in
  check Alcotest.int "out 0" 2 (Digraph.out_degree g 0);
  check Alcotest.int "in 3" 2 (Digraph.in_degree g 3);
  check Alcotest.(list int) "succ 0" [ 1; 2 ] (Digraph.succ g 0);
  check Alcotest.(list int) "pred 3" [ 1; 2 ] (Digraph.pred g 3);
  check Alcotest.int "edges" 4 (Digraph.edge_count g)

let test_digraph_reachable () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 3 4;
  let r = Digraph.reachable_from g [ 0 ] in
  check Alcotest.(array bool) "reach from 0" [| true; true; true; false; false |] r

let prop_digraph_topo_respects_edges =
  QCheck.Test.make ~name:"random DAG topo order respects edges" ~count:60
    QCheck.(pair (int_range 2 30) (list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let g = Digraph.create n in
      (* force edges forward to guarantee acyclicity *)
      let edges =
        List.filter_map
          (fun (a, b) ->
            let a = a mod n and b = b mod n in
            if a < b then Some (a, b) else if b < a then Some (b, a) else None)
          pairs
      in
      List.iter (fun (a, b) -> Digraph.add_edge g a b) edges;
      match Digraph.topological_order g with
      | None -> false
      | Some order ->
        let position = Array.make n 0 in
        Array.iteri (fun i v -> position.(v) <- i) order;
        List.for_all (fun (a, b) -> position.(a) < position.(b)) edges)

(* {1 Stats} *)

let test_stats_basic () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum xs);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.maximum xs);
  check (Alcotest.float 1e-6) "stddev" (sqrt 1.25) (Stats.stddev xs)

let test_stats_empty () =
  check (Alcotest.float 1e-9) "mean []" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "median []" 0.0 (Stats.median []);
  check (Alcotest.float 1e-9) "stddev [x]" 0.0 (Stats.stddev [ 3.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile 99.0 xs);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile 100.0 xs)

let test_stats_geometric_mean () =
  check (Alcotest.float 1e-9) "geomean" 2.0 (Stats.geometric_mean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Stats.geometric_mean [ 1.0; 0.0 ]))

let test_stats_histogram () =
  let h = Stats.histogram ~bins:4 [ 0.0; 1.0; 2.0; 3.0; 4.0 ] in
  check Alcotest.int "bins" 4 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check Alcotest.int "all counted" 5 total

(* {1 Table} *)

let test_table_render () =
  let t =
    Table.create ~title:"Demo" ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && String.sub s 0 4 = "Demo");
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "contains alpha" true (contains "alpha" s);
  check Alcotest.bool "padded value column" true (contains "|     1 |" s)

let test_table_arity () =
  let t = Table.create ~title:"x" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row (x): expected 1 cells, got 2") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  check Alcotest.string "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "pct" "34.0%" (Table.cell_pct 0.34);
  check Alcotest.string "money M" "$5.0M" (Table.cell_money 5e6);
  check Alcotest.string "money 725M" "$725M" (Table.cell_money 725e6);
  check Alcotest.string "money B" "$1.2B" (Table.cell_money 1.2e9);
  check Alcotest.string "money k" "$12k" (Table.cell_money 12_000.0)

(* {1 Crc32} *)

let test_crc32_known_answers () =
  let hex s = Crc32.to_hex (Crc32.digest s) in
  check Alcotest.string "check value" "cbf43926" (hex "123456789");
  check Alcotest.string "empty" "00000000" (hex "");
  check Alcotest.string "sub of a longer string" "cbf43926"
    (Crc32.to_hex (Crc32.digest_sub "xx123456789y" ~pos:2 ~len:9));
  check Alcotest.(option int32) "of_hex inverts to_hex" (Some (Crc32.digest "123456789"))
    (Crc32.of_hex "CBF43926")

(* one bit at a time, straight from the polynomial: the table-driven
   digest must agree on every input *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 table matches bitwise reference" ~count:200 QCheck.string
    (fun s -> Crc32.digest s = crc32_bitwise s)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_pqueue_heap; prop_digraph_topo_respects_edges; prop_crc32_matches_bitwise ]

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid args" `Quick test_rng_invalid;
    Alcotest.test_case "rng bernoulli mean" `Quick test_rng_bernoulli_mean;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
    Alcotest.test_case "exp underflow premise" `Quick test_exp_underflow_premise;
    Alcotest.test_case "pqueue sorted pops" `Quick test_pqueue_sorted_pops;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
    Alcotest.test_case "pqueue peek/clear" `Quick test_pqueue_peek;
    Alcotest.test_case "pqueue ties across growth" `Quick test_pqueue_ties_across_growth;
    Alcotest.test_case "digraph topo" `Quick test_digraph_topo;
    Alcotest.test_case "digraph cycle" `Quick test_digraph_cycle;
    Alcotest.test_case "digraph levels" `Quick test_digraph_levels;
    Alcotest.test_case "digraph degrees" `Quick test_digraph_degrees;
    Alcotest.test_case "digraph reachable" `Quick test_digraph_reachable;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats geometric mean" `Quick test_stats_geometric_mean;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "table cell formats" `Quick test_table_cells;
  ]
  @ qsuite
