module Jsonout = Educhip_obs.Jsonout

let schema_version = 1

type state = Pending | Firing | Resolved

let state_name = function Pending -> "pending" | Firing -> "firing" | Resolved -> "resolved"

let state_of_name = function
  | "pending" -> Some Pending
  | "firing" -> Some Firing
  | "resolved" -> Some Resolved
  | _ -> None

type entry = {
  schema : int;
  t_ms : float;
  tick : int;
  rule : string;
  labels : (string * string) list;
  state : state;
  value : float;
  threshold : float;
  severity : string;
  extra : (string * Jsonout.t) list;
}

let make ~t_ms ~tick ~rule ?(labels = []) ~state ~value ~threshold ?(severity = "warn") () =
  {
    schema = schema_version;
    t_ms;
    tick;
    rule;
    labels = List.sort compare labels;
    state;
    value;
    threshold;
    severity;
    extra = [];
  }

let to_json e =
  Jsonout.Obj
    ([
       ("schema", Jsonout.Int e.schema);
       ("t_ms", Jsonout.Float e.t_ms);
       ("tick", Jsonout.Int e.tick);
       ("rule", Jsonout.String e.rule);
       ("labels", Jsonout.Obj (List.map (fun (k, v) -> (k, Jsonout.String v)) e.labels));
       ("state", Jsonout.String (state_name e.state));
       ("value", Jsonout.Float e.value);
       ("threshold", Jsonout.Float e.threshold);
       ("severity", Jsonout.String e.severity);
     ]
    @ e.extra)

let known_fields =
  [ "schema"; "t_ms"; "tick"; "rule"; "labels"; "state"; "value"; "threshold"; "severity" ]

let of_json j =
  match j with
  | Jsonout.Obj members -> (
    let rule = Jsonout.string "rule" j in
    let state = Option.bind (Jsonout.string "state" j) state_of_name in
    match (rule, state) with
    | Some rule, Some state ->
      let labels =
        match Jsonout.member "labels" j with
        | Some (Jsonout.Obj kvs) ->
          List.filter_map
            (function k, Jsonout.String v -> Some (k, v) | _ -> None)
            kvs
          |> List.sort compare
        | _ -> []
      in
      Some
        {
          schema = Option.value (Jsonout.int "schema" j) ~default:schema_version;
          t_ms = Option.value (Jsonout.float "t_ms" j) ~default:0.0;
          tick = Option.value (Jsonout.int "tick" j) ~default:0;
          rule;
          labels;
          state;
          value = Option.value (Jsonout.float "value" j) ~default:0.0;
          threshold = Option.value (Jsonout.float "threshold" j) ~default:0.0;
          severity = Option.value (Jsonout.string "severity" j) ~default:"warn";
          extra = List.filter (fun (k, _) -> not (List.mem k known_fields)) members;
        }
    | _ -> None)
  | _ -> None

let append ~path e = Educhip_obs.Jsonl.append ~path (to_json e)
let load ~path = Educhip_obs.Jsonl.load ~path ~decode:of_json
