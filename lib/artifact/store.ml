module Flow = Educhip_flow.Flow
module Jsonout = Educhip_obs.Jsonout

type t = Kv.t

let default_dir = ".educhip-artifacts"

(* A full flow run stores nine artifacts (every step but [gds]), so the
   default cap holds ~225 distinct (design, config) chains — sized for a
   campaign, not a demo. *)
let default_max_entries = 2048

let family = "artifact"

let create ?(max_entries = default_max_entries) ~dir () =
  Kv.create ~family ~max_entries ~dir ()

let dir = Kv.dir

type entry = {
  key : string;
  step : string;
  tag : string;
  state : Jsonout.t;
      (** raw snapshot payload; decoding is deferred to [Artifact], which
          holds the upstream context a decode needs *)
  report : Flow.step_report;
  exec : Flow.step_exec;
}

let schema = 1

let entry_to_json e =
  Jsonout.Obj
    [
      ("schema", Jsonout.Int schema);
      ("key", Jsonout.String e.key);
      ("step", Jsonout.String e.step);
      ("tag", Jsonout.String e.tag);
      ("state", e.state);
      ("report", Codec.report_to_json e.report);
      ("exec", Codec.exec_to_json e.exec);
    ]

let entry_of_json j =
  if Jsonout.int "schema" j <> Some schema then failwith "artifact entry: bad schema";
  let need what = function Some v -> v | None -> failwith ("artifact entry: bad " ^ what) in
  let str k = need k (Jsonout.string k j) and field k = need k (Jsonout.member k j) in
  {
    key = str "key";
    step = str "step";
    tag = str "tag";
    state = field "state";
    report = Codec.report_of_json (field "report");
    exec = Codec.exec_of_json (field "exec");
  }

let store t e = Kv.put t e.key (entry_to_json e)
let lookup t key = Kv.get t key ~decode:entry_of_json
let probe t key = Kv.probe t key ~decode:entry_of_json
let quarantine_key = Kv.quarantine
let entries = Kv.entries
let quarantined = Kv.quarantined
let clear = Kv.clear
let metric_names = Kv.metric_names ~family
