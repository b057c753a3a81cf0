let schema_version = 2

type step = { step : string; wall_ms : float; attempts : int; rung : int }

type qor = {
  cells : int;
  area_um2 : float;
  wns_ps : float;
  wirelength_um : float;
  drc_violations : int;
}

type record = {
  schema : int;
  design : string;
  node : string;
  preset : string;
  verdict : string;
  total_wall_ms : float;
  injected : string list;
  fault_seed : int option;
  max_retries : int option;
  guard_retries : int;
  guard_degraded : int;
  steps : step list;
  qor : qor option;
  trace_id : string option;  (* schema >= 2 *)
  queue_wait_ms : float option;  (* schema >= 2; service-mode queue time *)
  extra : (string * Jsonout.t) list;
}

let make ~design ~node ~preset ~verdict ~total_wall_ms ?(injected = []) ?fault_seed
    ?max_retries ?(guard_retries = 0) ?(guard_degraded = 0) ?(steps = []) ?qor
    ?trace_id ?queue_wait_ms () =
  { schema = schema_version; design; node; preset; verdict; total_wall_ms; injected;
    fault_seed; max_retries; guard_retries; guard_degraded; steps; qor; trace_id;
    queue_wait_ms; extra = [] }

(* {1 Encoding} *)

let step_json s =
  Jsonout.Obj
    [ ("step", Jsonout.String s.step);
      ("wall_ms", Jsonout.Float s.wall_ms);
      ("attempts", Jsonout.Int s.attempts);
      ("rung", Jsonout.Int s.rung) ]

let qor_json q =
  Jsonout.Obj
    [ ("cells", Jsonout.Int q.cells);
      ("area_um2", Jsonout.Float q.area_um2);
      ("wns_ps", Jsonout.Float q.wns_ps);
      ("wirelength_um", Jsonout.Float q.wirelength_um);
      ("drc_violations", Jsonout.Int q.drc_violations) ]

let to_json r =
  let opt_int = function Some i -> Jsonout.Int i | None -> Jsonout.Null in
  Jsonout.Obj
    ([ ("schema", Jsonout.Int r.schema);
       ("design", Jsonout.String r.design);
       ("node", Jsonout.String r.node);
       ("preset", Jsonout.String r.preset);
       ("verdict", Jsonout.String r.verdict);
       ("total_wall_ms", Jsonout.Float r.total_wall_ms);
       ("injected", Jsonout.List (List.map (fun s -> Jsonout.String s) r.injected));
       ("fault_seed", opt_int r.fault_seed);
       ("max_retries", opt_int r.max_retries);
       ("guard_retries", Jsonout.Int r.guard_retries);
       ("guard_degraded", Jsonout.Int r.guard_degraded);
       ("steps", Jsonout.List (List.map step_json r.steps));
       ("qor", match r.qor with Some q -> qor_json q | None -> Jsonout.Null) ]
    (* schema-2 fields, elided when absent so local (non-service) runs
       keep their schema-1 shape apart from the version stamp *)
    @ (match r.trace_id with Some id -> [ ("trace_id", Jsonout.String id) ] | None -> [])
    @ (match r.queue_wait_ms with
      | Some w -> [ ("queue_wait_ms", Jsonout.Float w) ]
      | None -> [])
    @ r.extra)

(* {1 Tolerant decoding} *)

let known_fields =
  [ "schema"; "design"; "node"; "preset"; "verdict"; "total_wall_ms"; "injected";
    "fault_seed"; "max_retries"; "guard_retries"; "guard_degraded"; "steps"; "qor";
    "trace_id"; "queue_wait_ms" ]

let get_float j key d = Option.value (Jsonout.float key j) ~default:d
let get_int j key d = Option.value (Jsonout.int key j) ~default:d
let get_string j key d = Option.value (Jsonout.string key j) ~default:d

let step_of_json j =
  { step = get_string j "step" "?";
    wall_ms = get_float j "wall_ms" 0.0;
    attempts = get_int j "attempts" 1;
    rung = get_int j "rung" 0 }

let qor_of_json j =
  { cells = get_int j "cells" 0;
    area_um2 = get_float j "area_um2" 0.0;
    wns_ps = get_float j "wns_ps" 0.0;
    wirelength_um = get_float j "wirelength_um" 0.0;
    drc_violations = get_int j "drc_violations" 0 }

let of_json j =
  let members =
    match j with
    | Jsonout.Obj ms -> ms
    | _ -> failwith "Runlog.of_json: record is not a JSON object"
  in
  let injected =
    match Jsonout.member "injected" j with
    | Some (Jsonout.List xs) -> List.filter_map Jsonout.as_string xs
    | _ -> []
  in
  let steps =
    match Jsonout.member "steps" j with
    | Some (Jsonout.List xs) -> List.map step_of_json xs
    | _ -> []
  in
  let qor =
    match Jsonout.member "qor" j with
    | Some (Jsonout.Obj _ as q) -> Some (qor_of_json q)
    | _ -> None
  in
  { schema = get_int j "schema" schema_version;
    design = get_string j "design" "?";
    node = get_string j "node" "?";
    preset = get_string j "preset" "?";
    verdict = get_string j "verdict" "?";
    total_wall_ms = get_float j "total_wall_ms" 0.0;
    injected;
    fault_seed = Jsonout.int "fault_seed" j;
    max_retries = Jsonout.int "max_retries" j;
    guard_retries = get_int j "guard_retries" 0;
    guard_degraded = get_int j "guard_degraded" 0;
    steps;
    qor;
    trace_id = Jsonout.string "trace_id" j;
    queue_wait_ms = Jsonout.float "queue_wait_ms" j;
    extra = List.filter (fun (k, _) -> not (List.mem k known_fields)) members }

(* {1 File I/O} *)

let append ~path r = Jsonl.append ~path (to_json r)
let load ~path = Jsonl.load ~path ~decode:(fun j -> Some (of_json j))

let last = function [] -> None | records -> Some (List.nth records (List.length records - 1))

let matching ~design ~node ~preset records =
  List.filter
    (fun r -> r.design = design && r.node = node && r.preset = preset)
    records
