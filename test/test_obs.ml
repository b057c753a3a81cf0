module Obs = Educhip_obs.Obs
module Jsonout = Educhip_obs.Jsonout
module Tracectx = Educhip_obs.Tracectx
module Stats = Educhip_util.Stats
module Mclock = Educhip_util.Mclock

let check = Alcotest.check

(* {1 Spans} *)

let test_span_nesting () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "outer" (fun () ->
          Obs.with_span "first" (fun () -> ());
          Obs.with_span "second" (fun () -> ()));
      Obs.with_span "later" (fun () -> ()));
  let roots = Obs.root_spans c in
  check Alcotest.(list string) "roots in order" [ "outer"; "later" ]
    (List.map Obs.span_name roots);
  let outer = List.hd roots in
  check Alcotest.(list string) "children in order" [ "first"; "second" ]
    (List.map Obs.span_name (Obs.span_children outer));
  check Alcotest.(list int) "leaves have no children" [ 0; 0 ]
    (List.map (fun s -> List.length (Obs.span_children s)) (Obs.span_children outer));
  List.iter
    (fun s ->
      check Alcotest.bool "duration non-negative" true (Obs.span_duration_ms s >= 0.0))
    roots

(* a collector that keeps no spans still times and nests them and keeps
   every metric, but holds no span tree once its root closes, nor one
   merged into it *)
let test_unkept_spans () =
  let c = Obs.create ~spans:false () in
  let (), ms =
    Obs.with_collector c (fun () ->
        Obs.timed "outer" (fun () ->
            Obs.with_span "inner" (fun () -> Obs.observe "h" 1.0);
            Obs.incr_counter "n"))
  in
  check Alcotest.bool "timed" true (Option.is_some ms);
  check Alcotest.int "counter kept" 1 (Obs.counter_value c "n");
  check Alcotest.(list (float 0.0)) "histogram kept" [ 1.0 ] (Obs.histogram_samples c "h");
  check Alcotest.int "no span tree held" 0 (List.length (Obs.root_spans c));
  let src = Obs.create () in
  Obs.with_collector src (fun () -> Obs.with_span "worker" (fun () -> Obs.incr_counter "n"));
  Obs.merge ~into:c src;
  check Alcotest.int "merged counter" 2 (Obs.counter_value c "n");
  check Alcotest.int "merged spans dropped" 0 (List.length (Obs.root_spans c))

let test_span_exception_safety () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      (try Obs.with_span "boom" (fun () -> failwith "inner") with Failure _ -> ());
      (* the stack must have unwound: this is a sibling, not a child *)
      Obs.with_span "after" (fun () -> ()));
  check Alcotest.(list string) "escaped span closed, stack unwound"
    [ "boom"; "after" ]
    (List.map Obs.span_name (Obs.root_spans c))

let test_span_attrs () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "s" ~attrs:[ ("k", Obs.Int 1) ] (fun () ->
          Obs.set_attr "extra" (Obs.Str "v");
          Obs.set_attr "k" (Obs.Int 2)));
  match Obs.root_spans c with
  | [ s ] ->
    check Alcotest.bool "overwrite wins" true
      (List.assoc "k" (Obs.span_attrs s) = Obs.Int 2);
    check Alcotest.bool "later attr present" true
      (List.assoc "extra" (Obs.span_attrs s) = Obs.Str "v")
  | _ -> Alcotest.fail "expected one root span"

let test_timed () =
  let c = Obs.create () in
  let (v, ms_on), ms_off =
    ( Obs.with_collector c (fun () -> Obs.timed "t" (fun () -> 41 + 1)),
      snd (Obs.timed "t" (fun () -> ())) )
  in
  check Alcotest.int "value passed through" 42 v;
  check Alcotest.bool "Some wall time when enabled" true (ms_on <> None);
  check Alcotest.bool "None when disabled" true (ms_off = None)

(* {1 No-op sink} *)

let test_noop_sink () =
  check Alcotest.bool "disabled by default" false (Obs.enabled ());
  (* every probe must be a no-op, not an error *)
  let v = Obs.with_span "ignored" (fun () -> 7) in
  check Alcotest.int "with_span is identity" 7 v;
  Obs.incr_counter "nope";
  Obs.set_gauge "nope" 1.0;
  Obs.observe "nope" 1.0;
  Obs.set_attr "nope" (Obs.Int 1);
  let c = Obs.create () in
  check Alcotest.int "nothing was recorded" 0 (Obs.counter_value c "nope");
  check Alcotest.(list string) "no spans recorded" []
    (List.map Obs.span_name (Obs.root_spans c))

let test_with_collector_restores () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      check Alcotest.bool "enabled inside" true (Obs.enabled ()));
  check Alcotest.bool "disabled after" false (Obs.enabled ());
  (try Obs.with_collector c (fun () -> failwith "x") with Failure _ -> ());
  check Alcotest.bool "disabled after exception" false (Obs.enabled ())

(* {1 Metrics} *)

let test_counters () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.incr_counter "hits";
      Obs.add_counter "hits" 4;
      Obs.add_counter "hits" ~labels:[ ("design", "alu8"); ("preset", "open") ] 2;
      (* label order must not distinguish series *)
      Obs.add_counter "hits" ~labels:[ ("preset", "open"); ("design", "alu8") ] 3;
      Obs.declare_counter "never_fired");
  check Alcotest.int "unlabeled series" 5 (Obs.counter_value c "hits");
  check Alcotest.int "labeled series, order-insensitive" 5
    (Obs.counter_value c "hits" ~labels:[ ("design", "alu8"); ("preset", "open") ]);
  check Alcotest.int "declared at zero" 0 (Obs.counter_value c "never_fired");
  check Alcotest.int "unregistered reads zero" 0 (Obs.counter_value c "absent")

let test_gauges () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.set_gauge "temp" 4.0;
      Obs.set_gauge "temp" 2.5);
  check Alcotest.bool "last write wins" true (Obs.gauge_value c "temp" = Some 2.5);
  check Alcotest.bool "unset gauge is None" true (Obs.gauge_value c "other" = None)

let test_histograms () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      List.iter (Obs.observe "wait") [ 3.0; 1.0; 2.0 ]);
  check
    Alcotest.(list (float 1e-9))
    "samples in observation order" [ 3.0; 1.0; 2.0 ]
    (Obs.histogram_samples c "wait");
  check Alcotest.(list (float 1e-9)) "unregistered is empty" []
    (Obs.histogram_samples c "absent")

(* {1 JSON emitter and parser} *)

let test_json_escaping () =
  check Alcotest.string "quotes and backslash" {|"a\"b\\c"|}
    (Jsonout.escape_string {|a"b\c|});
  check Alcotest.string "control characters" {|"\n\t\u0001"|}
    (Jsonout.escape_string "\n\t\x01");
  check Alcotest.string "string emit" "\"line\\nbreak\""
    (Jsonout.to_string (Jsonout.String "line\nbreak"))

let test_json_control_chars () =
  (* every control character U+0000-U+001F must emit as an escape and
     survive a parse round trip *)
  for code = 0 to 0x1f do
    let s = Printf.sprintf "a%cb" (Char.chr code) in
    let emitted = Jsonout.escape_string s in
    String.iter
      (fun c ->
        check Alcotest.bool
          (Printf.sprintf "U+%04X emits no raw control byte" code)
          true
          (Char.code c >= 0x20))
      emitted;
    check Alcotest.bool
      (Printf.sprintf "U+%04X round-trips" code)
      true
      (Jsonout.of_string emitted = Jsonout.String s)
  done

let test_json_non_ascii () =
  (* UTF-8 multi-byte sequences and stray high bytes pass through verbatim *)
  let utf8 = "caf\xc3\xa9 \xe2\x82\xac" in
  check Alcotest.string "utf-8 passes through" ("\"" ^ utf8 ^ "\"")
    (Jsonout.escape_string utf8);
  let stray = "x\xffy\x80z" in
  check Alcotest.bool "high bytes round-trip" true
    (Jsonout.of_string (Jsonout.escape_string stray) = Jsonout.String stray)

let test_json_nonfinite () =
  check Alcotest.string "nan is null" "null" (Jsonout.to_string (Jsonout.Float nan));
  check Alcotest.string "infinity is null" "null"
    (Jsonout.to_string (Jsonout.Float infinity))

let test_json_roundtrip () =
  let v =
    Jsonout.Obj
      [ ("name", Jsonout.String "flow \"quoted\"\n");
        ("count", Jsonout.Int 42);
        ("ratio", Jsonout.Float 2.5);
        ("whole", Jsonout.Float 5.0);
        ("ok", Jsonout.Bool true);
        ("nothing", Jsonout.Null);
        ("xs", Jsonout.List [ Jsonout.Int 1; Jsonout.Int (-2) ]) ]
  in
  check Alcotest.bool "compact round-trip" true
    (Jsonout.of_string (Jsonout.to_string v) = v);
  check Alcotest.bool "pretty round-trip" true
    (Jsonout.of_string (Jsonout.to_string ~pretty:true v) = v);
  check Alcotest.bool "unicode escape decodes" true
    (Jsonout.of_string "\"\\u0041\\u00e9\"" = Jsonout.String "A\xc3\xa9");
  check Alcotest.bool "trailing garbage rejected" true
    (try
       ignore (Jsonout.of_string "{} x");
       false
     with Failure _ -> true)

(* {1 Export schemas} *)

let test_trace_event_schema () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "parent" ~attrs:[ ("cells", Obs.Int 3) ] (fun () ->
          Obs.with_span "child" (fun () -> ())));
  let json = Jsonout.of_string (Jsonout.to_string (Obs.trace_json c)) in
  match Jsonout.member "traceEvents" json with
  | Some (Jsonout.List events) ->
    check Alcotest.int "one event per span" 2 (List.length events);
    List.iter
      (fun ev ->
        check Alcotest.bool "complete event" true
          (Jsonout.member "ph" ev = Some (Jsonout.String "X"));
        List.iter
          (fun field ->
            check Alcotest.bool (field ^ " present") true
              (Jsonout.member field ev <> None))
          [ "name"; "cat"; "ts"; "dur"; "pid"; "tid"; "args" ])
      events;
    let names =
      List.filter_map
        (fun ev ->
          match Jsonout.member "name" ev with
          | Some (Jsonout.String s) -> Some s
          | _ -> None)
        events
    in
    check Alcotest.(list string) "depth-first order" [ "parent"; "child" ] names
  | _ -> Alcotest.fail "traceEvents array missing"

let test_metrics_schema () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.add_counter "n" 2;
      Obs.observe "h" 1.0;
      Obs.observe "h" 3.0);
  let json = Jsonout.of_string (Jsonout.to_string (Obs.metrics_json c)) in
  (match Jsonout.member "counters" json with
  | Some (Jsonout.List [ counter ]) ->
    check Alcotest.bool "counter value" true
      (Jsonout.member "value" counter = Some (Jsonout.Int 2))
  | _ -> Alcotest.fail "counters array missing");
  match Jsonout.member "histograms" json with
  | Some (Jsonout.List [ h ]) ->
    check Alcotest.bool "count" true (Jsonout.member "count" h = Some (Jsonout.Int 2));
    check Alcotest.bool "mean" true (Jsonout.member "mean" h = Some (Jsonout.Float 2.0));
    check Alcotest.bool "bins present" true (Jsonout.member "bins" h <> None)
  | _ -> Alcotest.fail "histograms array missing"

let test_histogram_summary_stats () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      List.iter (Obs.observe "lat") samples;
      Obs.declare_gauge "depth");
  let json = Jsonout.of_string (Jsonout.to_string (Obs.metrics_json c)) in
  (match Jsonout.member "histograms" json with
  | Some (Jsonout.List [ h ]) ->
    let field name =
      match Jsonout.member name h with
      | Some (Jsonout.Float f) -> f
      | Some (Jsonout.Int i) -> float_of_int i
      | _ -> Alcotest.failf "histogram field %s missing" name
    in
    check (Alcotest.float 1e-6) "p99" (Stats.percentile 99.0 samples) (field "p99");
    check (Alcotest.float 1e-6) "stddev" (Stats.stddev samples) (field "stddev");
    check Alcotest.bool "p95 still present" true (Jsonout.member "p95" h <> None)
  | _ -> Alcotest.fail "histograms array missing");
  check Alcotest.bool "declare_gauge registers at zero" true
    (Obs.gauge_value c "depth" = Some 0.0)

(* {1 Snapshots} *)

let test_snapshot_diff () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.add_counter "jobs" 3;
      Obs.set_gauge "depth" 1.5;
      Obs.observe "lat" 10.0);
  let s0 = Obs.snapshot c in
  Obs.with_collector c (fun () ->
      Obs.add_counter "jobs" 4;
      Obs.set_gauge "depth" 4.0;
      Obs.observe "lat" 20.0;
      Obs.observe "lat" 30.0;
      Obs.add_counter ~labels:[ ("k", "v") ] "new" 2);
  let s1 = Obs.snapshot c in
  check
    Alcotest.(list (triple string (list (pair string string)) (float 1e-9)))
    "per-series later minus earlier, absent series against zero"
    [
      ("depth", [], 2.5);
      ("jobs", [], 4.0);
      ("lat.count", [], 2.0);
      ("lat.sum", [], 50.0);
      ("new", [ ("k", "v") ], 2.0);
    ]
    (Obs.snapshot_diff s0 s1);
  (* a snapshot is a frozen copy, not a live view *)
  Obs.with_collector c (fun () -> Obs.add_counter "jobs" 10);
  check
    Alcotest.(list (triple string (list (pair string string)) (float 1e-9)))
    "identical snapshots diff to zeros"
    [ ("depth", [], 0.0); ("jobs", [], 0.0); ("lat.count", [], 0.0);
      ("lat.sum", [], 0.0); ("new", [ ("k", "v") ], 0.0) ]
    (Obs.snapshot_diff s1 s1)

let test_histogram_window_bounded () =
  let n = Obs.histogram_window + 50 in
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      for i = 1 to n do
        Obs.observe "lat" (float_of_int i)
      done);
  let kept = Obs.histogram_samples c "lat" in
  check Alcotest.int "only the window is retained" Obs.histogram_window
    (List.length kept);
  check Alcotest.bool "retained samples are the newest" true
    (List.hd kept = 51.0 && List.nth kept (Obs.histogram_window - 1) = float_of_int n);
  (* lifetime count/sum stay exact past the window *)
  let s0 = Obs.snapshot (Obs.create ()) in
  let diff = Obs.snapshot_diff s0 (Obs.snapshot c) in
  check (Alcotest.float 1e-9) "count is lifetime-exact" (float_of_int n)
    (match List.assoc_opt "lat.count" (List.map (fun (k, _, v) -> (k, v)) diff) with
    | Some v -> v
    | None -> Float.nan);
  check (Alcotest.float 1e-6) "sum is lifetime-exact"
    (float_of_int (n * (n + 1) / 2))
    (match List.assoc_opt "lat.sum" (List.map (fun (k, _, v) -> (k, v)) diff) with
    | Some v -> v
    | None -> Float.nan)

(* {1 Prometheus text exposition} *)

let test_metrics_text () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.add_counter "place.moves_accepted" ~labels:[ ("design", "alu8") ] 7;
      Obs.add_counter "place.moves_accepted" ~labels:[ ("design", "mult8") ] 2;
      Obs.set_gauge "queue.depth" 2.5;
      List.iter (Obs.observe "guard.backoff_ms") [ 50.0; 100.0 ]);
  let text = Obs.metrics_text c in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  check Alcotest.bool "dotted name sanitized + labeled" true
    (has {|place_moves_accepted{design="alu8"} 7|});
  check Alcotest.bool "one TYPE line per family" true
    (1
    = List.length
        (List.filter (fun l -> l = "# TYPE place_moves_accepted counter") lines));
  check Alcotest.bool "gauge line" true (has "queue_depth 2.5");
  check Alcotest.bool "gauge TYPE line" true (has "# TYPE queue_depth gauge");
  check Alcotest.bool "summary quantile" true
    (has {|guard_backoff_ms{quantile="0.5"} 75|});
  check Alcotest.bool "summary sum and count" true
    (has "guard_backoff_ms_sum 150" && has "guard_backoff_ms_count 2")

let test_metrics_text_escaping () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.incr_counter "hits" ~labels:[ ("path", "a\\b \"q\" \nend") ]);
  let text = Obs.metrics_text c in
  check Alcotest.bool "backslash, quote, newline escaped" true
    (let expected = {|hits{path="a\\b \"q\" \nend"} 1|} in
     List.mem expected (String.split_on_char '\n' text));
  check Alcotest.string "leading digit sanitized" "_2x" (Obs.prom_name "42x")

(* {1 Stats.histogram constant-input regression} *)

let test_stats_histogram_constant () =
  match Stats.histogram ~bins:8 [ 4.0; 4.0; 4.0 ] with
  | [| (lo, hi, n) |] ->
    check Alcotest.int "all samples in the one bin" 3 n;
    check (Alcotest.float 1e-9) "unit width around the value" 1.0 (hi -. lo);
    check Alcotest.bool "value inside the bin" true (lo <= 4.0 && 4.0 <= hi)
  | bins ->
    Alcotest.failf "expected a single bin for constant input, got %d"
      (Array.length bins)

(* {1 Span edge cases} *)

let test_unclosed_span_duration () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "open" (fun () ->
          (* observed mid-flight: the span is in the tree but not closed *)
          match Obs.root_spans c with
          | [ s ] ->
            check Alcotest.bool "stop is nan while open" true
              (Float.is_nan (Obs.span_stop_us s));
            check (Alcotest.float 1e-9) "unclosed duration reads 0" 0.0
              (Obs.span_duration_ms s)
          | _ -> Alcotest.fail "expected the open span as a root"));
  match Obs.root_spans c with
  | [ s ] ->
    check Alcotest.bool "closed afterwards" false (Float.is_nan (Obs.span_stop_us s));
    check Alcotest.bool "duration non-negative" true (Obs.span_duration_ms s >= 0.0)
  | _ -> Alcotest.fail "expected one root span"

let test_merge_epoch_ordering () =
  (* two collectors created at different times (think: two worker
     domains): merge must rebase the source's collector-relative
     timestamps so absolute event times — epoch + offset — are
     preserved, keeping cross-domain ordering monotonic *)
  let abs_start c s = (Obs.epoch_s c *. 1e6) +. Obs.span_start_us s in
  let c1 = Obs.create () in
  Obs.with_collector c1 (fun () -> Obs.with_span "early" (fun () -> ()));
  let t0 = Mclock.now_ms () in
  while Mclock.now_ms () -. t0 < 2.0 do
    ()
  done;
  let c2 = Obs.create () in
  Obs.with_collector c2 (fun () -> Obs.with_span "late" (fun () -> ()));
  let late_abs = abs_start c2 (List.hd (Obs.root_spans c2)) in
  Obs.merge ~into:c1 c2;
  match Obs.root_spans c1 with
  | [ e; l ] ->
    check Alcotest.(list string) "merged roots oldest first" [ "early"; "late" ]
      (List.map Obs.span_name [ e; l ]);
    check (Alcotest.float 1.0) "rebasing preserves absolute time (us)" late_abs
      (abs_start c1 l);
    check Alcotest.bool "cross-epoch ordering stays monotonic" true
      (abs_start c1 e < abs_start c1 l)
  | _ -> Alcotest.fail "expected two roots after merge"

(* {1 Prometheus exposition validity (property)} *)

(* A structural validator for the text exposition format: every line a
   collector can emit must be a comment, blank, or
   [name{k="v",...} value] with sanitized names and escaped values. *)
let valid_prom_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       n

(* the text between the quotes of a label value: no raw quote or
   newline, backslash only when starting one of the three escapes
   (backslash, quote, n) *)
let valid_escaped_value s =
  let n = String.length s in
  let rec go i =
    i >= n
    ||
    match s.[i] with
    | '"' | '\n' -> false
    | '\\' -> i + 1 < n && (match s.[i + 1] with '\\' | '"' | 'n' -> go (i + 2) | _ -> false)
    | _ -> go (i + 1)
  in
  go 0

let valid_prom_line line =
  let valid_value v =
    v = "NaN" || v = "+Inf" || v = "-Inf" || float_of_string_opt v <> None
  in
  let valid_labels body =
    (* comma-separated key=quoted-value pairs; scan, since splitting on
       commas would break on values containing commas *)
    let n = String.length body in
    let pair i =
      (* parse one k="v"; return position after it *)
      let rec name j =
        if j < n && (match body.[j] with '=' -> false | _ -> true) then name (j + 1) else j
      in
      let eq = name i in
      if eq >= n || body.[eq] <> '=' || not (valid_prom_name (String.sub body i (eq - i)))
      then None
      else if eq + 1 >= n || body.[eq + 1] <> '"' then None
      else
        (* find the closing unescaped quote *)
        let rec close j =
          if j >= n then None
          else
            match body.[j] with
            | '\\' -> close (j + 2)
            | '"' -> Some j
            | _ -> close (j + 1)
        in
        match close (eq + 2) with
        | None -> None
        | Some q ->
          if not (valid_escaped_value (String.sub body (eq + 2) (q - eq - 2))) then None
          else Some (q + 1)
    in
    let rec pairs i =
      match pair i with
      | None -> false
      | Some j ->
        if j = n then true else j < n && body.[j] = ',' && pairs (j + 1)
    in
    n = 0 || pairs 0
  in
  if line = "" then true
  else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; kind ] ->
      valid_prom_name name && List.mem kind [ "counter"; "gauge"; "summary"; "histogram" ]
    | _ -> false
  else
    match String.index_opt line ' ' with
    | None -> false
    | Some _ ->
      (* value is everything after the LAST space: label values may
         themselves contain spaces *)
      let cut = String.rindex line ' ' in
      let head = String.sub line 0 cut in
      let value = String.sub line (cut + 1) (String.length line - cut - 1) in
      valid_value value
      &&
      (match String.index_opt head '{' with
      | None -> valid_prom_name head
      | Some b ->
        String.length head > 0
        && head.[String.length head - 1] = '}'
        && valid_prom_name (String.sub head 0 b)
        && valid_labels (String.sub head (b + 1) (String.length head - b - 2)))

let raw_string_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12))

let prom_exposition_prop =
  (* hostile metric names and label pairs — control bytes, quotes,
     backslashes, spaces, unicode — must still yield a parseable
     exposition *)
  let gen =
    QCheck.Gen.(
      triple raw_string_gen
        (list_size (int_bound 3) (pair raw_string_gen raw_string_gen))
        (int_bound 1000))
  in
  QCheck.Test.make ~name:"metrics_text lines are valid Prometheus exposition"
    ~count:300
    (QCheck.make
       ~print:(fun (n, ls, v) ->
         Printf.sprintf "name=%S labels=[%s] v=%d" n
           (String.concat ";" (List.map (fun (k, x) -> Printf.sprintf "%S=%S" k x) ls))
           v)
       gen)
    (fun (name, labels, v) ->
      let c = Obs.create () in
      Obs.with_collector c (fun () ->
          Obs.add_counter name ~labels (v + 1);
          Obs.set_gauge name ~labels (float_of_int v /. 7.0);
          Obs.observe (name ^ ".lat") ~labels (float_of_int v));
      let lines = String.split_on_char '\n' (Obs.metrics_text c) in
      List.for_all valid_prom_line lines
      (* every family is typed, gauges included — a scraper keys its
         Tsdb series kinds off these lines *)
      && List.mem ("# TYPE " ^ Obs.prom_name name ^ " gauge") lines
      && List.mem ("# TYPE " ^ Obs.prom_name name ^ " counter") lines
      && List.mem ("# TYPE " ^ Obs.prom_name (name ^ ".lat") ^ " summary") lines)

(* {1 Trace context and stitched events} *)

let test_tracectx_ids () =
  List.iter
    (fun id -> check Alcotest.bool ("valid: " ^ id) true (Tracectx.is_valid_id id))
    [ "a"; "trace-0af1"; "A.B_c-9"; String.make 64 'x' ];
  List.iter
    (fun id -> check Alcotest.bool ("invalid: " ^ id) false (Tracectx.is_valid_id id))
    [ ""; "bad id"; "q\"uote"; String.make 65 'x'; "nl\n" ];
  Alcotest.check_raises "make rejects bad ids"
    (Invalid_argument
       "Tracectx.make: trace id \"bad id\" must be 1-64 chars of [a-zA-Z0-9._-]")
    (fun () -> ignore (Tracectx.make "bad id"));
  let ctx = Tracectx.make ~parent_span:"p0" "t-1" in
  check Alcotest.string "trace_id" "t-1" (Tracectx.trace_id ctx);
  check Alcotest.(option string) "parent_span" (Some "p0") (Tracectx.parent_span ctx);
  let g = Tracectx.generate () in
  check Alcotest.bool "generated id is valid" true
    (Tracectx.is_valid_id (Tracectx.trace_id g));
  check Alcotest.bool "generated ids differ" true
    (Tracectx.trace_id g <> Tracectx.trace_id (Tracectx.generate ()))

let test_tracectx_ambient () =
  check Alcotest.bool "no ambient context by default" true (Tracectx.current () = None);
  let ctx = Tracectx.make "t-amb" in
  let seen =
    Tracectx.with_current ctx (fun () ->
        match Tracectx.current () with Some c -> Tracectx.trace_id c | None -> "none")
  in
  check Alcotest.string "visible inside" "t-amb" seen;
  check Alcotest.bool "restored after" true (Tracectx.current () = None);
  (try Tracectx.with_current ctx (fun () -> failwith "x") with Failure _ -> ());
  check Alcotest.bool "restored after exception" true (Tracectx.current () = None)

let test_tracectx_events () =
  let ctx = Tracectx.make "t-ev" in
  let e =
    Tracectx.event ~name:"client.wait" ~cat:"client" ~tid:Tracectx.tid_client
      ~args:[ ("job", Obs.Str "j-000001") ]
      ~start_ms:10.0 ~stop_ms:12.5 ctx
  in
  check (Alcotest.float 1e-9) "ms to us" 10_000.0 e.Tracectx.ts_us;
  check (Alcotest.float 1e-9) "duration us" 2_500.0 e.Tracectx.dur_us;
  check Alcotest.bool "trace id injected into args" true
    (List.assoc_opt "trace_id" e.Tracectx.args = Some (Obs.Str "t-ev"));
  (* negative wall intervals (clock weirdness) clamp, never go negative *)
  let neg = Tracectx.event ~name:"n" ~start_ms:5.0 ~stop_ms:4.0 ctx in
  check (Alcotest.float 1e-9) "negative duration clamps to 0" 0.0 neg.Tracectx.dur_us;
  (* wire round trip *)
  let back = Tracectx.events_of_json (Tracectx.events_json [ e; neg ]) in
  check Alcotest.bool "events survive json round trip" true ([ e; neg ] = back);
  (* malformed entries are skipped, not fatal *)
  let partial =
    Tracectx.events_of_json
      (Jsonout.List [ Jsonout.Obj [ ("cat", Jsonout.String "x") ]; Jsonout.Int 3 ])
  in
  check Alcotest.int "malformed entries skipped" 0 (List.length partial)

let test_tracectx_collector_and_chrome () =
  let ctx = Tracectx.make "t-chrome" in
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "flow.run" (fun () -> Obs.with_span "synthesis" (fun () -> ())));
  let worker_events = Tracectx.events_of_collector ~tid:(Tracectx.tid_worker 1) ctx c in
  check Alcotest.(list string) "depth-first flatten" [ "flow.run"; "synthesis" ]
    (List.map (fun e -> e.Tracectx.name) worker_events);
  List.iter
    (fun e ->
      check Alcotest.int "worker tid" (Tracectx.tid_worker 1) e.Tracectx.tid;
      check Alcotest.bool "tagged with the trace id" true
        (List.assoc_opt "trace_id" e.Tracectx.args = Some (Obs.Str "t-chrome")))
    worker_events;
  (* stitch with a client event that started first, render to Chrome *)
  let t0 = (Obs.epoch_s c *. 1000.0) -. 3.0 in
  let client =
    Tracectx.event ~name:"client.submit" ~cat:"client" ~tid:Tracectx.tid_client
      ~start_ms:t0 ~stop_ms:(t0 +. 1.0) ctx
  in
  let json = Tracectx.to_chrome_json (worker_events @ [ client ]) in
  (match Jsonout.member "traceEvents" json with
  | Some (Jsonout.List evs) ->
    let xs =
      List.filter (fun e -> Jsonout.member "ph" e = Some (Jsonout.String "X")) evs
    in
    let ms =
      List.filter (fun e -> Jsonout.member "ph" e = Some (Jsonout.String "M")) evs
    in
    check Alcotest.int "one X event per input" 3 (List.length xs);
    check Alcotest.int "one thread_name row per tid" 2 (List.length ms);
    (* sorted by timestamp and rebased: the earliest X event is the
       client's, at ts 0 *)
    (match xs with
    | first :: _ ->
      check Alcotest.bool "client event first" true
        (Jsonout.member "name" first = Some (Jsonout.String "client.submit"));
      check Alcotest.bool "rebased to zero" true
        (match Jsonout.member "ts" first with
        | Some (Jsonout.Float f) -> Float.abs f < 1e-6
        | Some (Jsonout.Int i) -> i = 0
        | _ -> false)
    | [] -> Alcotest.fail "no X events");
    List.iter
      (fun e ->
        check Alcotest.bool "ts non-negative" true
          (match Jsonout.member "ts" e with
          | Some (Jsonout.Float f) -> f >= 0.0
          | Some (Jsonout.Int i) -> i >= 0
          | _ -> false))
      xs
  | _ -> Alcotest.fail "traceEvents missing");
  check Alcotest.bool "displayTimeUnit ms" true
    (Jsonout.member "displayTimeUnit" json = Some (Jsonout.String "ms"))

(* {1 Jsonout parse/print round-trip (property)} *)

(* Arbitrary JSON trees: every constructor, full-range strings (control
   chars, quotes, backslashes, high bytes), finite floats only — the
   emitter maps NaN/infinity to [null] by design, which cannot round-trip. *)
let json_gen =
  let open QCheck.Gen in
  let any_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 8) in
  let scalar =
    oneof
      [
        return Jsonout.Null;
        map (fun b -> Jsonout.Bool b) bool;
        map (fun i -> Jsonout.Int i) int;
        map
          (fun f -> Jsonout.Float (if Float.is_finite f then f else 0.5))
          float;
        map (fun s -> Jsonout.String s) any_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Jsonout.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Jsonout.Obj kvs)
                   (list_size (int_bound 4) (pair any_string (self (n / 2)))) );
             ])

let rec shrink_json v =
  let open QCheck.Iter in
  match v with
  | Jsonout.Null | Jsonout.Bool _ -> empty
  | Jsonout.Int i -> map (fun i -> Jsonout.Int i) (QCheck.Shrink.int i)
  | Jsonout.Float _ -> return (Jsonout.Int 0)
  | Jsonout.String s -> map (fun s -> Jsonout.String s) (QCheck.Shrink.string s)
  | Jsonout.List l ->
    of_list l
    <+> map (fun l -> Jsonout.List l) (QCheck.Shrink.list ~shrink:shrink_json l)
  | Jsonout.Obj kvs ->
    of_list (List.map snd kvs)
    <+> map
          (fun kvs -> Jsonout.Obj kvs)
          (QCheck.Shrink.list
             ~shrink:(QCheck.Shrink.pair QCheck.Shrink.string shrink_json)
             kvs)

let json_arbitrary =
  QCheck.make ~print:(Jsonout.to_string ~pretty:true) ~shrink:shrink_json json_gen

let json_roundtrip_prop =
  QCheck.Test.make ~name:"of_string (to_string v) = v for arbitrary JSON trees"
    ~count:500 json_arbitrary (fun v ->
      Jsonout.of_string (Jsonout.to_string v) = v
      && Jsonout.of_string (Jsonout.to_string ~pretty:true v) = v)

let suite =
  QCheck_alcotest.to_alcotest json_roundtrip_prop
  :: QCheck_alcotest.to_alcotest prom_exposition_prop
  :: [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "unkept spans" `Quick test_unkept_spans;
    Alcotest.test_case "span attributes" `Quick test_span_attrs;
    Alcotest.test_case "unclosed span duration" `Quick test_unclosed_span_duration;
    Alcotest.test_case "merge rebases epochs monotonically" `Quick
      test_merge_epoch_ordering;
    Alcotest.test_case "timed wall time" `Quick test_timed;
    Alcotest.test_case "no-op sink" `Quick test_noop_sink;
    Alcotest.test_case "with_collector restores" `Quick test_with_collector_restores;
    Alcotest.test_case "counters and labels" `Quick test_counters;
    Alcotest.test_case "gauges" `Quick test_gauges;
    Alcotest.test_case "histogram samples" `Quick test_histograms;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json control characters" `Quick test_json_control_chars;
    Alcotest.test_case "json non-ascii bytes" `Quick test_json_non_ascii;
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "trace-event schema" `Quick test_trace_event_schema;
    Alcotest.test_case "metrics schema" `Quick test_metrics_schema;
    Alcotest.test_case "histogram summary stats" `Quick test_histogram_summary_stats;
    Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
    Alcotest.test_case "histogram window bounded" `Quick test_histogram_window_bounded;
    Alcotest.test_case "prometheus text exposition" `Quick test_metrics_text;
    Alcotest.test_case "prometheus escaping" `Quick test_metrics_text_escaping;
    Alcotest.test_case "stats histogram constant input" `Quick
      test_stats_histogram_constant;
    Alcotest.test_case "tracectx id validation" `Quick test_tracectx_ids;
    Alcotest.test_case "tracectx ambient context" `Quick test_tracectx_ambient;
    Alcotest.test_case "tracectx event building and json" `Quick test_tracectx_events;
    Alcotest.test_case "tracectx collector flatten and chrome export" `Quick
      test_tracectx_collector_and_chrome;
  ]
