module Flow = Educhip_flow.Flow
module Fault = Educhip_fault.Fault
module Netlist = Educhip_netlist.Netlist
module Jsonout = Educhip_obs.Jsonout
module Runlog = Educhip_obs.Runlog
module Kv = Educhip_artifact.Kv

type t = Kv.t

let default_dir = ".educhip-cache"
let default_max_entries = 512

let create ?(max_entries = default_max_entries) ~dir () =
  Kv.create ~family:"cache" ~max_entries ~dir ()

let flow_code_version = "educhip-flow/1:" ^ String.concat "," Flow.step_names

let job_key ~netlist ~cfg ~inject ~fault_seed ~retries =
  let plan = String.concat "," (List.map Fault.arming_to_string inject) in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            flow_code_version;
            Netlist.structural_digest netlist;
            Flow.config_signature cfg;
            plan;
            string_of_int fault_seed;
            string_of_int retries;
          ]))

type entry = {
  key : string;
  verdict : string;
  ppa : Flow.ppa option;
  record : Runlog.record;
}

let schema = 1

let ppa_to_json (p : Flow.ppa) =
  Jsonout.Obj
    [
      ("area_um2", Jsonout.Float p.area_um2);
      ("cells", Jsonout.Int p.cells);
      ("fmax_mhz", Jsonout.Float p.fmax_mhz);
      ("wns_ps", Jsonout.Float p.wns_ps);
      ("total_power_uw", Jsonout.Float p.total_power_uw);
      ("wirelength_um", Jsonout.Float p.wirelength_um);
      ("drc_clean", Jsonout.Bool p.drc_clean);
    ]

let number = function
  | Jsonout.Int n -> float_of_int n
  | Jsonout.Float f -> f
  | _ -> failwith "cache entry: expected number"

let ppa_of_json j : Flow.ppa =
  let field k = match Jsonout.member k j with
    | Some v -> v
    | None -> failwith ("cache entry: ppa missing " ^ k)
  in
  {
    area_um2 = number (field "area_um2");
    cells = (match field "cells" with Jsonout.Int n -> n | _ -> failwith "cache entry: cells");
    fmax_mhz = number (field "fmax_mhz");
    wns_ps = number (field "wns_ps");
    total_power_uw = number (field "total_power_uw");
    wirelength_um = number (field "wirelength_um");
    drc_clean = (match field "drc_clean" with Jsonout.Bool b -> b | _ -> failwith "cache entry: drc_clean");
  }

let entry_to_json e =
  Jsonout.Obj
    [
      ("schema", Jsonout.Int schema);
      ("key", Jsonout.String e.key);
      ("verdict", Jsonout.String e.verdict);
      ("ppa", (match e.ppa with Some p -> ppa_to_json p | None -> Jsonout.Null));
      ("record", Runlog.to_json e.record);
    ]

let entry_of_json j =
  (match Jsonout.member "schema" j with
  | Some (Jsonout.Int v) when v = schema -> ()
  | _ -> failwith "cache entry: bad schema");
  let str k = match Jsonout.member k j with
    | Some (Jsonout.String s) -> s
    | _ -> failwith ("cache entry: missing " ^ k)
  in
  {
    key = str "key";
    verdict = str "verdict";
    ppa =
      (match Jsonout.member "ppa" j with
      | Some Jsonout.Null | None -> None
      | Some p -> Some (ppa_of_json p));
    record =
      (match Jsonout.member "record" j with
      | Some r -> Runlog.of_json r
      | None -> failwith "cache entry: missing record");
  }

let store t e = Kv.put t e.key (entry_to_json e)
let lookup t key = Kv.get t key ~decode:entry_of_json
let probe t key = Kv.probe t key ~decode:entry_of_json
let entries = Kv.entries
let quarantined = Kv.quarantined
let clear = Kv.clear
