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

type entry = Codec.entry = {
  key : string;
  step : string;
  tag : string;
  state : string;
  report : Educhip_flow.Flow.step_report;
  exec : Educhip_flow.Flow.step_exec;
}

let store t e = Kv.put t e.key (Codec.encode_entry e)
let lookup t key = Kv.get t key ~decode:Codec.decode_entry
let probe t key = Kv.probe t key ~decode:Codec.decode_entry
let quarantine_key = Kv.quarantine
let entries = Kv.entries
let quarantined = Kv.quarantined
let clear = Kv.clear
let metric_names = Kv.metric_names ~family
