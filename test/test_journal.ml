module Wire = Educhip_serve.Wire
module Journal = Educhip_serve.Journal
module Client = Educhip_serve.Client
module Tracectx = Educhip_obs.Tracectx

let check = Alcotest.check

let temp_journal () =
  let path = Filename.temp_file "educhip_journal" ".eduj" in
  Sys.remove path;
  path

let with_journal_path f =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* {2 Line codec} *)

let full_spec =
  {
    Wire.design = "alu8";
    tenant = "uni-a";
    preset = "commercial";
    node = "edu28";
    clock_ps = Some 1250.0;
    priority = 3;
    fault_seed = 7;
    retries = Some 2;
    inject = [ "flow.routing:crash@2"; "place.anneal:hang" ];
    deadline_ms = Some 500.0;
    idempotency_key = Some "course-ex3-uni-a-42";
    trace = Some (Tracectx.make ~parent_span:"client-submit" "trace-0af1");
    extra = [];
  }

let entry_roundtrip e =
  match Journal.entry_of_line (Journal.entry_to_line e) with
  | Ok e' -> e' = e
  | Error msg -> Alcotest.failf "entry_of_line: %s" msg

let test_entry_roundtrip () =
  List.iter
    (fun e ->
      check Alcotest.bool (Journal.entry_to_line e) true (entry_roundtrip e))
    [
      Journal.Accepted { id = "j-000001"; spec = Wire.submit "counter" };
      Journal.Accepted { id = "j-000042"; spec = full_spec };
      Journal.Started { id = "j-000042" };
      Journal.Done { id = "j-000042"; verdict = "ok" };
      Journal.Done { id = "j-000007"; verdict = "failed(deadline_exceeded)" };
    ]

(* the bytes of each entry kind, checksum included, as the journal has
   always written them: a reader of an older journal must accept them *)
let test_entry_lines_pinned () =
  let spec =
    {
      Wire.design = "counter";
      tenant = "uni-a";
      preset = "open";
      node = "edu130";
      clock_ps = Some 900.;
      priority = 2;
      fault_seed = 3;
      retries = Some 2;
      inject = [ "flow.sta:crash@99" ];
      deadline_ms = Some 1500.;
      idempotency_key = Some "k1";
      trace = None;
      extra = [];
    }
  in
  check
    Alcotest.(list string)
    "lines"
    [
      {|EDUJ1 f752e8d2 {"e":"accepted","id":"j-000001","req":{"schema":1,"op":"submit","design":"counter","tenant":"uni-a","preset":"open","node":"edu130","clock_ps":900.0,"priority":2,"fault_seed":3,"retries":2,"inject":["flow.sta:crash@99"],"deadline_ms":1500.0,"idempotency_key":"k1"}}|};
      {|EDUJ1 b93e5003 {"e":"started","id":"j-000001"}|};
      {|EDUJ1 c4166642 {"e":"done","id":"j-000001","verdict":"ok"}|};
    ]
    (List.map Journal.entry_to_line
       [
         Journal.Accepted { id = "j-000001"; spec };
         Journal.Started { id = "j-000001" };
         Journal.Done { id = "j-000001"; verdict = "ok" };
       ])

(* property: any submission the wire can carry, the journal can carry.
   The spec is derived from the two generated ints so the failure report
   is reproducible. *)
let qcheck_spec_roundtrip =
  QCheck.Test.make ~name:"accepted entry round-trips any wire spec" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let pick arr n = arr.(n mod Array.length arr) in
      let opt v n = if n land 1 = 0 then None else Some v in
      let spec =
        {
          Wire.design = pick [| "counter"; "gray8"; "alu8"; "mult4" |] a;
          tenant = pick [| "course"; "uni-a"; "uni-b" |] b;
          preset = pick [| "open"; "teaching"; "commercial" |] (a + b);
          node = pick [| "edu130"; "edu28" |] (a * 3);
          clock_ps = opt (float_of_int (100 + b) /. 4.0) a;
          priority = a mod 8;
          fault_seed = b;
          retries = opt (a mod 5) b;
          inject =
            List.filteri
              (fun i _ -> (a lsr i) land 1 = 1)
              [ "flow.routing:crash@2"; "place.anneal:hang"; "serve.read:crash" ];
          deadline_ms = opt (float_of_int (1 + a)) (b lsr 1);
          idempotency_key = opt (Printf.sprintf "key-%d-%d" a b) (a lsr 2);
          trace = opt (Tracectx.make ~parent_span:"qc" "trace-qc01") (b lsr 2);
          extra = [];
        }
      in
      entry_roundtrip (Journal.Accepted { id = Printf.sprintf "j-%06d" a; spec }))

let test_line_rejects_corruption () =
  let line = Journal.entry_to_line (Journal.Done { id = "j-000001"; verdict = "ok" }) in
  (* flip one payload byte: the CRC must catch it *)
  let flipped = Bytes.of_string line in
  let i = String.length line - 3 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x20));
  (match Journal.entry_of_line (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flipped byte must fail the checksum");
  (* a schema version we do not speak is refused, not guessed at *)
  let future = "EDUJ9" ^ String.sub line 5 (String.length line - 5) in
  (match Journal.entry_of_line future with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema version must be refused");
  match Journal.entry_of_line "EDUJ1 deadbeef" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated line must be refused"

(* {2 Torn tails} *)

let test_torn_tail () =
  with_journal_path (fun path ->
      let j = Journal.open_ ~path in
      Journal.append j (Journal.Accepted { id = "j-000001"; spec = full_spec });
      Journal.append j (Journal.Started { id = "j-000001" });
      Journal.append j (Journal.Done { id = "j-000001"; verdict = "ok" });
      Journal.close j;
      (* crash mid-append: a prefix of a real entry, no newline *)
      let torn =
        Journal.entry_to_line (Journal.Accepted { id = "j-000002"; spec = full_spec })
      in
      append_raw path (String.sub torn 0 (String.length torn / 2));
      let l = Journal.load ~path in
      check Alcotest.int "entries survive" 3 (List.length l.Journal.entries);
      check Alcotest.int "torn tail dropped" 1 l.Journal.dropped;
      (* the journal reopens and keeps appending after the torn line *)
      let j = Journal.open_ ~path in
      Journal.append j (Journal.Done { id = "j-000009"; verdict = "ok" });
      Journal.close j;
      let l = Journal.load ~path in
      check Alcotest.int "append after torn tail" 4 (List.length l.Journal.entries))

let test_load_missing_and_garbage () =
  with_journal_path (fun path ->
      let l = Journal.load ~path in
      check Alcotest.int "missing file is empty" 0 (List.length l.Journal.entries);
      check Alcotest.int "nothing dropped" 0 l.Journal.dropped;
      (* blank lines are ignored silently; non-empty garbage is counted *)
      append_raw path "not a journal line\n\n";
      append_raw path (Journal.entry_to_line (Journal.Started { id = "j-000001" }) ^ "\n");
      let l = Journal.load ~path in
      check Alcotest.int "valid line kept" 1 (List.length l.Journal.entries);
      check Alcotest.int "garbage dropped and counted" 1 l.Journal.dropped)

(* {2 Recovery shape} *)

let test_recover_order_and_shape () =
  with_journal_path (fun path ->
      let spec n = { (Wire.submit n) with Wire.tenant = "uni-a" } in
      let j = Journal.open_ ~path in
      Journal.append j (Journal.Accepted { id = "j-000001"; spec = spec "counter" });
      Journal.append j (Journal.Accepted { id = "j-000002"; spec = spec "gray8" });
      Journal.append j (Journal.Started { id = "j-000001" });
      Journal.append j (Journal.Accepted { id = "j-000003"; spec = spec "mult4" });
      Journal.append j (Journal.Started { id = "j-000002" });
      Journal.append j (Journal.Done { id = "j-000002"; verdict = "ok" });
      (* duplicate accept for a known id: first one wins *)
      Journal.append j (Journal.Accepted { id = "j-000001"; spec = spec "alu8" });
      (* orphan events for an id never accepted: ignored *)
      Journal.append j (Journal.Done { id = "j-999999"; verdict = "ok" });
      Journal.close j;
      let r = Journal.recover ~path in
      check
        Alcotest.(list (pair string string))
        "pending in admission order"
        [ ("j-000001", "counter"); ("j-000003", "mult4") ]
        (List.map (fun (id, s) -> (id, s.Wire.design)) r.Journal.pending);
      check Alcotest.int "one pending had started" 1 r.Journal.started_incomplete;
      check
        Alcotest.(list (pair string string))
        "completed with verdicts"
        [ ("j-000002", "ok") ]
        (List.map (fun (id, _, v) -> (id, v)) r.Journal.completed);
      check Alcotest.int "entries read" 8 r.Journal.entries_read;
      check Alcotest.int "nothing dropped" 0 r.Journal.dropped)

let test_compact () =
  with_journal_path (fun path ->
      let j = Journal.open_ ~path in
      for i = 1 to 20 do
        let id = Printf.sprintf "j-%06d" i in
        Journal.append j (Journal.Accepted { id; spec = Wire.submit "counter" });
        Journal.append j (Journal.Done { id; verdict = "ok" })
      done;
      Journal.close j;
      let keep =
        [
          Journal.Accepted { id = "j-000007"; spec = full_spec };
          Journal.Done { id = "j-000007"; verdict = "ok" };
        ]
      in
      Journal.compact ~path keep;
      let l = Journal.load ~path in
      check Alcotest.int "compacted to the survivors" 2 (List.length l.Journal.entries);
      check Alcotest.bool "survivors intact" true (l.Journal.entries = keep))

(* {2 Client backoff policy} *)

let test_backoff_schedule () =
  let policy = { Client.attempts = 5; base_ms = 50.0; cap_ms = 300.0; seed = 9 } in
  let a = Client.backoff_schedule policy in
  let b = Client.backoff_schedule policy in
  check Alcotest.(list (float 1e-9)) "seeded schedule is reproducible" a b;
  check Alcotest.int "one delay per attempt" 5 (List.length a);
  List.iteri
    (fun i d ->
      let full = Float.min policy.Client.cap_ms (policy.Client.base_ms *. (2.0 ** float_of_int i)) in
      (* full jitter: anywhere in [0, full), never above the cap *)
      check Alcotest.bool (Printf.sprintf "delay %d in [0, full)" i) true
        (d >= 0.0 && d < full +. 1e-9))
    a;
  (* the schedule actually uses the low half of the window equal jitter
     excluded — over 64 attempts at a flat cap, at least one delay must
     land below full/2 unless the jitter still has the old floor *)
  let flat = { Client.attempts = 64; base_ms = 100.0; cap_ms = 100.0; seed = 3 } in
  let low =
    List.exists (fun d -> d < 50.0) (Client.backoff_schedule flat)
  in
  check Alcotest.bool "full jitter reaches below the old half-delay floor" true low;
  let other = Client.backoff_schedule { policy with Client.seed = 10 } in
  check Alcotest.bool "different seed, different jitter" false (a = other)

let suite =
  [
    Alcotest.test_case "entry line round-trip" `Quick test_entry_roundtrip;
    Alcotest.test_case "entry lines pinned" `Quick test_entry_lines_pinned;
    QCheck_alcotest.to_alcotest qcheck_spec_roundtrip;
    Alcotest.test_case "corrupt lines rejected" `Quick test_line_rejects_corruption;
    Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail;
    Alcotest.test_case "missing file and garbage lines" `Quick test_load_missing_and_garbage;
    Alcotest.test_case "recovery order and shape" `Quick test_recover_order_and_shape;
    Alcotest.test_case "compaction" `Quick test_compact;
    Alcotest.test_case "client backoff schedule" `Quick test_backoff_schedule;
  ]
