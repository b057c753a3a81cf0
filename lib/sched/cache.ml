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

(* strict, unlike the wire's decoder: a missing or mistyped field is
   corruption, and the store quarantines the entry *)
let need what = function Some v -> v | None -> failwith ("cache entry: bad " ^ what)

let ppa_of_json j : Flow.ppa =
  let num k = need k (Jsonout.float k j) in
  {
    area_um2 = num "area_um2";
    cells = need "cells" (Jsonout.int "cells" j);
    fmax_mhz = num "fmax_mhz";
    wns_ps = num "wns_ps";
    total_power_uw = num "total_power_uw";
    wirelength_um = num "wirelength_um";
    drc_clean = need "drc_clean" (Jsonout.bool "drc_clean" j);
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
  if Jsonout.int "schema" j <> Some schema then failwith "cache entry: bad schema";
  {
    key = need "key" (Jsonout.string "key" j);
    verdict = need "verdict" (Jsonout.string "verdict" j);
    ppa =
      (match Jsonout.member "ppa" j with
      | Some Jsonout.Null | None -> None
      | Some p -> Some (ppa_of_json p));
    record = Runlog.of_json (need "record" (Jsonout.member "record" j));
  }

let store t e = Kv.put t e.key (entry_to_json e)
let lookup t key = Kv.get t key ~decode:entry_of_json
let probe t key = Kv.probe t key ~decode:entry_of_json
let entries = Kv.entries
let quarantined = Kv.quarantined
let clear = Kv.clear
