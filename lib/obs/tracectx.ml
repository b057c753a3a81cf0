type t = { trace_id : string; parent_span : string option }

let is_valid_id s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s

let make ?parent_span trace_id =
  if not (is_valid_id trace_id) then
    invalid_arg
      (Printf.sprintf
         "Tracectx.make: trace id %S must be 1-64 chars of [a-zA-Z0-9._-]" trace_id);
  { trace_id; parent_span }

let trace_id t = t.trace_id
let parent_span t = t.parent_span

(* Seeded from the clock and pid at first use; trace ids only need to be
   distinct between concurrent submissions, not cryptographically so. *)
let rng = lazy (Random.State.make_self_init ())

let generate_id () =
  let s = Lazy.force rng in
  Printf.sprintf "%08lx%08lx"
    (Random.State.int32 s Int32.max_int)
    (Random.State.int32 s Int32.max_int)

let generate () = make (generate_id ())

(* {1 Ambient context}

   One slot per domain, like the Obs collector sink: a worker that picks
   up a traced job installs the job's context around execution, and
   instrumented code (Flow, Guard) tags its spans with the trace id so a
   merged multi-request trace dump stays filterable per submission. *)

let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_key

let with_current ctx f =
  let previous = current () in
  Domain.DLS.set current_key (Some ctx);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key previous) f

(* {1 Trace events}

   The exchange format of request-scoped tracing: a flat list of
   complete ("X") Chrome trace events with *absolute* monotonic
   timestamps. Every process on the host reads the same CLOCK_MONOTONIC
   (Mclock), so events produced by the client binary, the server's
   connection threads, and its worker domains land on one coherent
   timeline without clock negotiation. *)

type event = {
  name : string;
  cat : string;
  ts_us : float;  (* absolute Mclock microseconds *)
  dur_us : float;
  tid : int;
  args : (string * Obs.value) list;
}

let tid_client = 1
let tid_server = 2
let tid_worker w = 3 + w

let with_trace_arg t args =
  if List.mem_assoc "trace_id" args then args
  else ("trace_id", Obs.Str t.trace_id) :: args

let event ~name ?(cat = "serve") ?(tid = tid_server) ?(args = []) ~start_ms ~stop_ms t
    =
  {
    name;
    cat;
    ts_us = start_ms *. 1000.0;
    dur_us = Float.max 0.0 ((stop_ms -. start_ms) *. 1000.0);
    tid;
    args = with_trace_arg t args;
  }

(* span-name dot-prefix, mirroring Obs.trace_json's category rule *)
let category name =
  match String.index_opt name '.' with
  | Some i when i > 0 -> String.sub name 0 i
  | Some _ | None -> "flow"

let events_of_collector ?(tid = tid_worker 0) t c =
  let epoch_us = Obs.epoch_s c *. 1e6 in
  let events = ref [] in
  let rec emit span =
    let start_us = Obs.span_start_us span in
    let stop_us = Obs.span_stop_us span in
    events :=
      {
        name = Obs.span_name span;
        cat = category (Obs.span_name span);
        ts_us = epoch_us +. start_us;
        dur_us =
          (if Float.is_nan stop_us then 0.0 else Float.max 0.0 (stop_us -. start_us));
        tid;
        args = with_trace_arg t (Obs.span_attrs span);
      }
      :: !events;
    List.iter emit (Obs.span_children span)
  in
  List.iter emit (Obs.root_spans c);
  List.rev !events

(* {1 Wire encoding} *)

let value_json = function
  | Obs.Bool b -> Jsonout.Bool b
  | Obs.Int i -> Jsonout.Int i
  | Obs.Float f -> Jsonout.Float f
  | Obs.Str s -> Jsonout.String s

let value_of_json = function
  | Jsonout.Bool b -> Some (Obs.Bool b)
  | Jsonout.Int i -> Some (Obs.Int i)
  | Jsonout.Float f -> Some (Obs.Float f)
  | Jsonout.String s -> Some (Obs.Str s)
  | Jsonout.Null | Jsonout.List _ | Jsonout.Obj _ -> None

let event_json e =
  Jsonout.Obj
    [
      ("name", Jsonout.String e.name);
      ("cat", Jsonout.String e.cat);
      ("ts", Jsonout.Float e.ts_us);
      ("dur", Jsonout.Float e.dur_us);
      ("tid", Jsonout.Int e.tid);
      ("args", Jsonout.Obj (List.map (fun (k, v) -> (k, value_json v)) e.args));
    ]

let events_json events = Jsonout.List (List.map event_json events)

let event_of_json j =
  match Jsonout.string "name" j with
  | None -> None
  | Some name ->
    Some
      {
        name;
        cat = Option.value (Jsonout.string "cat" j) ~default:(category name);
        ts_us = Option.value (Jsonout.float "ts" j) ~default:0.0;
        dur_us = Option.value (Jsonout.float "dur" j) ~default:0.0;
        tid = Option.value (Jsonout.int "tid" j) ~default:tid_server;
        args =
          (match Jsonout.member "args" j with
          | Some (Jsonout.Obj members) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun v -> (k, v)) (value_of_json v))
              members
          | _ -> []);
      }

let events_of_json = function
  | Jsonout.List xs -> List.filter_map event_of_json xs
  | _ -> []

(* {1 Chrome export}

   One self-contained trace per submission: events sorted by timestamp
   and re-based so the earliest starts at 0 (absolute monotonic stamps
   are boot-relative and only their differences matter), with
   thread_name metadata so the viewer labels the client / server /
   worker rows. *)

let tid_name tid =
  if tid = tid_client then "client"
  else if tid = tid_server then "server admission+queue"
  else Printf.sprintf "worker %d" (tid - 3)

let to_chrome_json events =
  let events = List.sort (fun a b -> compare (a.ts_us, a.tid) (b.ts_us, b.tid)) events in
  let t0 = match events with [] -> 0.0 | e :: _ -> e.ts_us in
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) events) in
  let meta =
    List.map
      (fun tid ->
        Jsonout.Obj
          [
            ("name", Jsonout.String "thread_name");
            ("ph", Jsonout.String "M");
            ("pid", Jsonout.Int 1);
            ("tid", Jsonout.Int tid);
            ("args", Jsonout.Obj [ ("name", Jsonout.String (tid_name tid)) ]);
          ])
      tids
  in
  let body =
    List.map
      (fun e ->
        Jsonout.Obj
          [
            ("name", Jsonout.String e.name);
            ("cat", Jsonout.String e.cat);
            ("ph", Jsonout.String "X");
            ("ts", Jsonout.Float (e.ts_us -. t0));
            ("dur", Jsonout.Float e.dur_us);
            ("pid", Jsonout.Int 1);
            ("tid", Jsonout.Int e.tid);
            ("args", Jsonout.Obj (List.map (fun (k, v) -> (k, value_json v)) e.args));
          ])
      events
  in
  Jsonout.Obj
    [
      ("traceEvents", Jsonout.List (meta @ body));
      ("displayTimeUnit", Jsonout.String "ms");
    ]

let write_chrome ~path events = Jsonout.write_file ~path (to_chrome_json events)
