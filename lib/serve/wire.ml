module Jsonout = Educhip_obs.Jsonout
module Runlog = Educhip_obs.Runlog
module Tracectx = Educhip_obs.Tracectx
module Slo = Educhip_obs.Slo
module Flow = Educhip_flow.Flow

(* Still version 1: every field added since the first release (trace
   context, stats) is optional-and-tolerated, and [check_schema] rejects
   any *different* version — so bumping would cut off every legacy peer
   for no semantic gain. *)
let schema_version = 1

let max_wait_ms = 1000.0

type submit_spec = {
  design : string;
  tenant : string;
  preset : string;
  node : string;
  clock_ps : float option;
  priority : int;
  fault_seed : int;
  retries : int option;
  inject : string list;
  deadline_ms : float option;
  idempotency_key : string option;
      (* client-chosen dedup token: a resubmission carrying a key the
         server has already admitted returns the original job instead
         of running again, making retry-on-connection-loss safe *)
  trace : Tracectx.t option;
  extra : (string * Jsonout.t) list;
      (* unknown members from a newer peer, re-emitted verbatim so this
         process can proxy or persist the request without stripping them *)
}

let submit ?(tenant = "default") design =
  {
    design;
    tenant;
    preset = "open";
    node = "edu130";
    clock_ps = None;
    priority = 1;
    fault_seed = 1;
    retries = None;
    inject = [];
    deadline_ms = None;
    idempotency_key = None;
    trace = None;
    extra = [];
  }

type request =
  | Submit of submit_spec
  | Status of string
  | Result of { id : string; wait_ms : float option }
  | Health
  | Metrics
  | Stats
  | Drain
  | Cluster_status
  | Drain_replica of string

type reject_reason =
  | Overloaded
  | Rate_limited
  | Quota_exceeded
  | Draining
  | Bad_request of string
  | Unknown_id of string

let reject_reason_name = function
  | Overloaded -> "overloaded"
  | Rate_limited -> "rate_limited"
  | Quota_exceeded -> "quota"
  | Draining -> "draining"
  | Bad_request _ -> "bad_request"
  | Unknown_id _ -> "unknown_id"

let reject_reason_names =
  [ "overloaded"; "rate_limited"; "quota"; "draining"; "bad_request"; "unknown_id" ]

type state = Queued | Running | Done | Failed

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

let state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | _ -> None

type tenant_stats = {
  tenant : string;
  tier : string;
  inflight : int;
  completed_n : int;
  failed_n : int;
  p50_ms : float;
  p99_ms : float;
}

type replica_info = {
  r_name : string;
  r_addr : string;
  r_up : bool;
  r_draining : bool;
  r_removed : bool;
  r_routed : int;
  r_queue_depth : int;
  r_running : int;
  r_completed : int;
  r_failed : int;
}

type response =
  | Accepted of { id : string; tier : string; cached : bool; duplicate : bool }
  | Job_status of { id : string; state : state; verdict : string option }
  | Job_result of {
      id : string;
      verdict : string;
      from_cache : bool;
      exec_ms : float;
      wait_ms : float;
      ppa : Flow.ppa option;
      record : Runlog.record;
      trace_events : Tracectx.event list;
    }
  | Stats_report of {
      uptime_ms : float;
      queue_depth : int;
      running : int;
      completed : int;
      failed : int;
      rejects : (string * int) list;
      tenants : tenant_stats list;
      slos : Slo.report list;
    }
  | Health_report of {
      uptime_ms : float;
      queue_depth : int;
      running : int;
      completed : int;
      failed : int;
      draining : bool;
      workers : int;
    }
  | Metrics_text of string
  | Drain_ack of { pending : int }
  | Cluster_report of { replicas : replica_info list }
  | Rejected of { reason : reject_reason; retry_after_ms : float option }

(* {1 JSON helpers} *)

(* members whose value is the field's default are elided on the wire *)
let obj members = Jsonout.Obj (List.filter_map Fun.id members)
let field name v = Some (name, v)
let opt_field name f = Option.map (fun v -> (name, f v))

let versioned members = obj (field "schema" (Jsonout.Int schema_version) :: members)

let ppa_to_json = Educhip_sched.Cache.ppa_to_json

let ppa_of_json json =
  match json with
  | Jsonout.Obj _ ->
    Some
      {
        Flow.area_um2 = Option.value (Jsonout.float "area_um2" json) ~default:0.0;
        cells = Option.value (Jsonout.int "cells" json) ~default:0;
        fmax_mhz = Option.value (Jsonout.float "fmax_mhz" json) ~default:0.0;
        wns_ps = Option.value (Jsonout.float "wns_ps" json) ~default:0.0;
        total_power_uw = Option.value (Jsonout.float "total_power_uw" json) ~default:0.0;
        wirelength_um = Option.value (Jsonout.float "wirelength_um" json) ~default:0.0;
        drc_clean = Option.value (Jsonout.bool "drc_clean" json) ~default:false;
      }
  | _ -> None

(* {1 Requests} *)

(* every member a submit encoder of this version may emit; anything
   else on a decoded submit line is a newer peer's field and is kept in
   [extra] so a re-encode (proxying, spooling) passes it through *)
let known_submit_fields =
  [
    "schema"; "op"; "design"; "tenant"; "preset"; "node"; "clock_ps"; "priority";
    "fault_seed"; "retries"; "inject"; "deadline_ms"; "idempotency_key"; "trace_id";
    "parent_span";
  ]

(* the submit body is factored out so the journal can persist a
   submission in its exact wire form and re-decode it on recovery *)
let submit_body s =
  [
    field "op" (Jsonout.String "submit");
    field "design" (Jsonout.String s.design);
    field "tenant" (Jsonout.String s.tenant);
    field "preset" (Jsonout.String s.preset);
    field "node" (Jsonout.String s.node);
    opt_field "clock_ps" (fun v -> Jsonout.Float v) s.clock_ps;
    field "priority" (Jsonout.Int s.priority);
    field "fault_seed" (Jsonout.Int s.fault_seed);
    opt_field "retries" (fun v -> Jsonout.Int v) s.retries;
    (if s.inject = [] then None
     else
       field "inject" (Jsonout.List (List.map (fun a -> Jsonout.String a) s.inject)));
    opt_field "deadline_ms" (fun v -> Jsonout.Float v) s.deadline_ms;
    opt_field "idempotency_key" (fun k -> Jsonout.String k) s.idempotency_key;
    opt_field "trace_id" (fun t -> Jsonout.String (Tracectx.trace_id t)) s.trace;
    Option.bind s.trace (fun t ->
        opt_field "parent_span" (fun p -> Jsonout.String p) (Tracectx.parent_span t));
  ]
  @ List.map (fun (k, v) -> field k v) s.extra

let submit_to_json s = versioned (submit_body s)

let encode_request req =
  let body =
    match req with
    | Submit s -> submit_body s
    | Status id -> [ field "op" (Jsonout.String "status"); field "id" (Jsonout.String id) ]
    | Result { id; wait_ms } ->
      [
        field "op" (Jsonout.String "result");
        field "id" (Jsonout.String id);
        opt_field "wait_ms" (fun w -> Jsonout.Float w) wait_ms;
      ]
    | Health -> [ field "op" (Jsonout.String "health") ]
    | Metrics -> [ field "op" (Jsonout.String "metrics") ]
    | Stats -> [ field "op" (Jsonout.String "stats") ]
    | Drain -> [ field "op" (Jsonout.String "drain") ]
    | Cluster_status -> [ field "op" (Jsonout.String "cluster_status") ]
    | Drain_replica name ->
      [
        field "op" (Jsonout.String "drain_replica");
        field "replica" (Jsonout.String name);
      ]
  in
  Jsonout.to_string (versioned body)

let check_schema json =
  match Jsonout.int "schema" json with
  | Some v when v = schema_version -> Ok ()
  | Some v -> Error (Printf.sprintf "unsupported schema version %d (speak %d)" v schema_version)
  | None -> Error "missing schema field"

let require_id json k =
  match Jsonout.string "id" json with
  | Some id -> Ok (k id)
  | None -> Error "missing id field"

let decode_submit json =
  match Jsonout.string "design" json with
  | None -> Error "submit: missing design field"
  | Some design -> (
    let dft = submit design in
    let inject =
      match Jsonout.member "inject" json with
      | Some (Jsonout.List xs) -> List.filter_map Jsonout.as_string xs
      | _ -> []
    in
    let trace =
      match Jsonout.string "trace_id" json with
      | Some id when Tracectx.is_valid_id id ->
        Ok (Some (Tracectx.make ?parent_span:(Jsonout.string "parent_span" json) id))
      | Some id -> Error (Printf.sprintf "submit: invalid trace_id %S" id)
      | None -> Ok None
    in
    let extra =
      match json with
      | Jsonout.Obj members ->
        List.filter (fun (k, _) -> not (List.mem k known_submit_fields)) members
      | _ -> []
    in
    match trace with
    | Error _ as e -> e
    | Ok trace ->
      Ok
        {
          design;
          tenant = Option.value (Jsonout.string "tenant" json) ~default:dft.tenant;
          preset = Option.value (Jsonout.string "preset" json) ~default:dft.preset;
          node = Option.value (Jsonout.string "node" json) ~default:dft.node;
          clock_ps = Jsonout.float "clock_ps" json;
          priority = Option.value (Jsonout.int "priority" json) ~default:dft.priority;
          fault_seed = Option.value (Jsonout.int "fault_seed" json) ~default:dft.fault_seed;
          retries = Jsonout.int "retries" json;
          inject;
          deadline_ms = Jsonout.float "deadline_ms" json;
          idempotency_key = Jsonout.string "idempotency_key" json;
          trace;
          extra;
        })

let submit_of_json json =
  match check_schema json with
  | Error _ as e -> e
  | Ok () -> (
    match Jsonout.string "op" json with
    | Some "submit" -> decode_submit json
    | Some other -> Error (Printf.sprintf "expected a submit request, got op %S" other)
    | None -> Error "missing op field")

let decode_request line =
  match Jsonout.of_string line with
  | exception Failure msg -> Error msg
  | json -> (
    match check_schema json with
    | Error _ as e -> e
    | Ok () -> (
      match Jsonout.string "op" json with
      | None -> Error "missing op field"
      | Some "submit" -> Result.map (fun s -> Submit s) (decode_submit json)
      | Some "status" -> require_id json (fun id -> Status id)
      | Some "result" ->
        (* a wait that is not a positive number asks for none; a longer
           one than the protocol allows is cut to [max_wait_ms] *)
        let wait_ms =
          match Jsonout.float "wait_ms" json with
          | Some w when w > 0.0 -> Some (Float.min w max_wait_ms)
          | _ -> None
        in
        require_id json (fun id -> Result { id; wait_ms })
      | Some "health" -> Ok Health
      | Some "metrics" -> Ok Metrics
      | Some "stats" -> Ok Stats
      | Some "drain" -> Ok Drain
      | Some "cluster_status" -> Ok Cluster_status
      | Some "drain_replica" -> (
        match Jsonout.string "replica" json with
        | Some name -> Ok (Drain_replica name)
        | None -> Error "drain_replica: missing replica field")
      | Some other -> Error (Printf.sprintf "unknown op %S" other)))

(* {1 Responses} *)

let encode_response resp =
  let body =
    match resp with
    | Accepted a ->
      [
        field "type" (Jsonout.String "accepted");
        field "id" (Jsonout.String a.id);
        field "tier" (Jsonout.String a.tier);
        field "cached" (Jsonout.Bool a.cached);
        (* elided when false: legacy peers never see the member *)
        (if a.duplicate then field "duplicate" (Jsonout.Bool true) else None);
      ]
    | Job_status s ->
      [
        field "type" (Jsonout.String "status");
        field "id" (Jsonout.String s.id);
        field "state" (Jsonout.String (state_name s.state));
        opt_field "verdict" (fun v -> Jsonout.String v) s.verdict;
      ]
    | Job_result r ->
      [
        field "type" (Jsonout.String "result");
        field "id" (Jsonout.String r.id);
        field "verdict" (Jsonout.String r.verdict);
        field "from_cache" (Jsonout.Bool r.from_cache);
        field "exec_ms" (Jsonout.Float r.exec_ms);
        field "wait_ms" (Jsonout.Float r.wait_ms);
        field "ppa" (match r.ppa with Some p -> ppa_to_json p | None -> Jsonout.Null);
        field "record" (Runlog.to_json r.record);
        (if r.trace_events = [] then None
         else field "trace" (Tracectx.events_json r.trace_events));
      ]
    | Stats_report s ->
      [
        field "type" (Jsonout.String "stats");
        field "uptime_ms" (Jsonout.Float s.uptime_ms);
        field "queue_depth" (Jsonout.Int s.queue_depth);
        field "running" (Jsonout.Int s.running);
        field "completed" (Jsonout.Int s.completed);
        field "failed" (Jsonout.Int s.failed);
        field "rejects"
          (Jsonout.Obj (List.map (fun (reason, n) -> (reason, Jsonout.Int n)) s.rejects));
        field "tenants"
          (Jsonout.List
             (List.map
                (fun t ->
                  Jsonout.Obj
                    [
                      ("tenant", Jsonout.String t.tenant);
                      ("tier", Jsonout.String t.tier);
                      ("inflight", Jsonout.Int t.inflight);
                      ("completed", Jsonout.Int t.completed_n);
                      ("failed", Jsonout.Int t.failed_n);
                      ("p50_ms", Jsonout.Float t.p50_ms);
                      ("p99_ms", Jsonout.Float t.p99_ms);
                    ])
                s.tenants));
        field "slos" (Jsonout.List (List.map Slo.report_json s.slos));
      ]
    | Health_report h ->
      [
        field "type" (Jsonout.String "health");
        field "uptime_ms" (Jsonout.Float h.uptime_ms);
        field "queue_depth" (Jsonout.Int h.queue_depth);
        field "running" (Jsonout.Int h.running);
        field "completed" (Jsonout.Int h.completed);
        field "failed" (Jsonout.Int h.failed);
        field "draining" (Jsonout.Bool h.draining);
        field "workers" (Jsonout.Int h.workers);
      ]
    | Metrics_text text ->
      [ field "type" (Jsonout.String "metrics"); field "text" (Jsonout.String text) ]
    | Drain_ack d ->
      [ field "type" (Jsonout.String "drain"); field "pending" (Jsonout.Int d.pending) ]
    | Cluster_report c ->
      [
        field "type" (Jsonout.String "cluster");
        field "replicas"
          (Jsonout.List
             (List.map
                (fun r ->
                  Jsonout.Obj
                    [
                      ("name", Jsonout.String r.r_name);
                      ("addr", Jsonout.String r.r_addr);
                      ("up", Jsonout.Bool r.r_up);
                      ("draining", Jsonout.Bool r.r_draining);
                      ("removed", Jsonout.Bool r.r_removed);
                      ("routed", Jsonout.Int r.r_routed);
                      ("queue_depth", Jsonout.Int r.r_queue_depth);
                      ("running", Jsonout.Int r.r_running);
                      ("completed", Jsonout.Int r.r_completed);
                      ("failed", Jsonout.Int r.r_failed);
                    ])
                c.replicas));
      ]
    | Rejected r ->
      [
        field "type" (Jsonout.String "rejected");
        field "reason" (Jsonout.String (reject_reason_name r.reason));
        (match r.reason with
        | Bad_request detail | Unknown_id detail ->
          field "detail" (Jsonout.String detail)
        | _ -> None);
        opt_field "retry_after_ms" (fun v -> Jsonout.Float v) r.retry_after_ms;
      ]
  in
  Jsonout.to_string (versioned body)

let decode_response line =
  match Jsonout.of_string line with
  | exception Failure msg -> Error msg
  | json -> (
    match check_schema json with
    | Error _ as e -> e
    | Ok () -> (
      match Jsonout.string "type" json with
      | None -> Error "missing type field"
      | Some "accepted" ->
        require_id json (fun id ->
            Accepted
              {
                id;
                tier = Option.value (Jsonout.string "tier" json) ~default:"basic";
                cached = Option.value (Jsonout.bool "cached" json) ~default:false;
                duplicate = Option.value (Jsonout.bool "duplicate" json) ~default:false;
              })
      | Some "status" -> (
        let state = Option.bind (Jsonout.string "state" json) state_of_name in
        match (Jsonout.string "id" json, state) with
        | Some id, Some state ->
          Ok (Job_status { id; state; verdict = Jsonout.string "verdict" json })
        | None, _ -> Error "status: missing id field"
        | _, None -> Error "status: missing or unknown state field")
      | Some "result" -> (
        let id = Jsonout.string "id" json and verdict = Jsonout.string "verdict" json in
        match (id, verdict, Jsonout.member "record" json) with
        | Some id, Some verdict, Some record_json -> (
          match Runlog.of_json record_json with
          | exception Failure msg -> Error (Printf.sprintf "result: bad record: %s" msg)
          | record ->
            Ok
              (Job_result
                 {
                   id;
                   verdict;
                   from_cache = Option.value (Jsonout.bool "from_cache" json) ~default:false;
                   exec_ms = Option.value (Jsonout.float "exec_ms" json) ~default:0.0;
                   wait_ms = Option.value (Jsonout.float "wait_ms" json) ~default:0.0;
                   ppa = Option.bind (Jsonout.member "ppa" json) ppa_of_json;
                   record;
                   trace_events =
                     (match Jsonout.member "trace" json with
                     | Some events -> Tracectx.events_of_json events
                     | None -> []);
                 }))
        | _ -> Error "result: missing id, verdict, or record field")
      | Some "stats" ->
        Ok
          (Stats_report
             {
               uptime_ms = Option.value (Jsonout.float "uptime_ms" json) ~default:0.0;
               queue_depth = Option.value (Jsonout.int "queue_depth" json) ~default:0;
               running = Option.value (Jsonout.int "running" json) ~default:0;
               completed = Option.value (Jsonout.int "completed" json) ~default:0;
               failed = Option.value (Jsonout.int "failed" json) ~default:0;
               rejects =
                 (match Jsonout.member "rejects" json with
                 | Some (Jsonout.Obj members) ->
                   List.filter_map
                     (fun (reason, v) ->
                       Option.map (fun n -> (reason, n)) (Jsonout.as_int v))
                     members
                 | _ -> []);
               tenants =
                 (match Jsonout.member "tenants" json with
                 | Some (Jsonout.List xs) ->
                   List.filter_map
                     (fun t ->
                       Option.map
                         (fun tenant ->
                           {
                             tenant;
                             tier = Option.value (Jsonout.string "tier" t) ~default:"basic";
                             inflight = Option.value (Jsonout.int "inflight" t) ~default:0;
                             completed_n = Option.value (Jsonout.int "completed" t) ~default:0;
                             failed_n = Option.value (Jsonout.int "failed" t) ~default:0;
                             p50_ms = Option.value (Jsonout.float "p50_ms" t) ~default:0.0;
                             p99_ms = Option.value (Jsonout.float "p99_ms" t) ~default:0.0;
                           })
                         (Jsonout.string "tenant" t))
                     xs
                 | _ -> []);
               slos =
                 (match Jsonout.member "slos" json with
                 | Some (Jsonout.List xs) -> List.filter_map Slo.report_of_json xs
                 | _ -> []);
             })
      | Some "health" ->
        Ok
          (Health_report
             {
               uptime_ms = Option.value (Jsonout.float "uptime_ms" json) ~default:0.0;
               queue_depth = Option.value (Jsonout.int "queue_depth" json) ~default:0;
               running = Option.value (Jsonout.int "running" json) ~default:0;
               completed = Option.value (Jsonout.int "completed" json) ~default:0;
               failed = Option.value (Jsonout.int "failed" json) ~default:0;
               draining = Option.value (Jsonout.bool "draining" json) ~default:false;
               workers = Option.value (Jsonout.int "workers" json) ~default:0;
             })
      | Some "metrics" -> (
        match Jsonout.string "text" json with
        | Some text -> Ok (Metrics_text text)
        | None -> Error "metrics: missing text field")
      | Some "drain" ->
        Ok (Drain_ack { pending = Option.value (Jsonout.int "pending" json) ~default:0 })
      | Some "cluster" ->
        Ok
          (Cluster_report
             {
               replicas =
                 (match Jsonout.member "replicas" json with
                 | Some (Jsonout.List xs) ->
                   List.filter_map
                     (fun r ->
                       Option.map
                         (fun r_name ->
                           {
                             r_name;
                             r_addr = Option.value (Jsonout.string "addr" r) ~default:"";
                             r_up = Option.value (Jsonout.bool "up" r) ~default:false;
                             r_draining =
                               Option.value (Jsonout.bool "draining" r) ~default:false;
                             r_removed =
                               Option.value (Jsonout.bool "removed" r) ~default:false;
                             r_routed = Option.value (Jsonout.int "routed" r) ~default:0;
                             r_queue_depth =
                               Option.value (Jsonout.int "queue_depth" r) ~default:0;
                             r_running = Option.value (Jsonout.int "running" r) ~default:0;
                             r_completed =
                               Option.value (Jsonout.int "completed" r) ~default:0;
                             r_failed = Option.value (Jsonout.int "failed" r) ~default:0;
                           })
                         (Jsonout.string "name" r))
                     xs
                 | _ -> []);
             })
      | Some "rejected" -> (
        let detail = Option.value (Jsonout.string "detail" json) ~default:"" in
        let retry_after_ms = Jsonout.float "retry_after_ms" json in
        match Jsonout.string "reason" json with
        | Some "overloaded" -> Ok (Rejected { reason = Overloaded; retry_after_ms })
        | Some "rate_limited" -> Ok (Rejected { reason = Rate_limited; retry_after_ms })
        | Some "quota" -> Ok (Rejected { reason = Quota_exceeded; retry_after_ms })
        | Some "draining" -> Ok (Rejected { reason = Draining; retry_after_ms })
        | Some "bad_request" -> Ok (Rejected { reason = Bad_request detail; retry_after_ms })
        | Some "unknown_id" -> Ok (Rejected { reason = Unknown_id detail; retry_after_ms })
        | Some other -> Error (Printf.sprintf "unknown reject reason %S" other)
        | None -> Error "rejected: missing reason field")
      | Some other -> Error (Printf.sprintf "unknown response type %S" other)))
