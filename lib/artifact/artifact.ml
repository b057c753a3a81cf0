module Flow = Educhip_flow.Flow
module Netlist = Educhip_netlist.Netlist

let version = Stepkey.version

let metric_names = Store.metric_names

(* The decode context accumulates as the warm prefix restores: each
   restored netlist (synthesis, sizing, buffering) becomes the netlist a
   later placement decode builds on; the restored placement becomes the
   placement a routing decode builds on. Because [Flow.run_guarded] only
   probes while every previous step replayed, a step's context is always
   complete by the time its decode runs. *)
let memo ~store ~netlist ~cfg ~inject ~fault_seed ~retries : Flow.memo =
  let keys = Stepkey.chain ~netlist ~cfg ~inject ~fault_seed ~retries in
  let design_name = Netlist.name netlist in
  let node = cfg.Flow.node in
  let last_netlist = ref None in
  let last_place = ref None in
  let track = function
    | Flow.S_synth (n, _) | Flow.S_netlist n -> last_netlist := Some n
    | Flow.S_place p -> last_place := Some p
    | Flow.S_cts _ | Flow.S_route _ | Flow.S_timing _ | Flow.S_power _
    | Flow.S_drc _ | Flow.S_not_stored ->
      ()
  in
  let memo_probe step =
    match List.assoc_opt step keys with
    | None -> None
    | Some key -> (
      match Store.lookup store key with
      | None -> None
      | Some e -> (
        let ctx =
          {
            Codec.design_name;
            node;
            netlist = !last_netlist;
            placement = !last_place;
          }
        in
        match Codec.state_of_json ctx ~tag:e.Store.tag e.Store.state with
        | Some st ->
          track st;
          Some
            {
              Flow.snap_state = st;
              snap_report = e.Store.report;
              snap_exec = e.Store.exec;
            }
        | None -> None
        | exception Failure _ ->
          (* checksum passed but the payload doesn't decode: schema
             drift or a hand-edited file — quarantine, run live *)
          Store.quarantine_key store key;
          None))
  in
  let memo_save step (s : Flow.step_snapshot) =
    match List.assoc_opt step keys with
    | None -> ()
    | Some key ->
      track s.Flow.snap_state;
      let tag, payload = Codec.state_to_json s.Flow.snap_state in
      Store.store store
        {
          Store.key;
          step;
          tag;
          state = payload;
          report = s.Flow.snap_report;
          exec = s.Flow.snap_exec;
        }
  in
  { Flow.memo_probe; memo_save }

(* Read-only prediction for --dry-run: how many leading stored steps
   would replay. Counts consecutive probe hits from the chain's head — the
   same stop-at-first-miss rule the replay itself follows, so the
   prediction can't overpromise a resume depth the run won't reach. *)
let warm_prefix ~store ~netlist ~cfg ~inject ~fault_seed ~retries =
  let keys = Stepkey.chain ~netlist ~cfg ~inject ~fault_seed ~retries in
  let rec count n = function
    | (_, key) :: rest when Store.probe store key -> count (n + 1) rest
    | _ -> n
  in
  count 0 keys
