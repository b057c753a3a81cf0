(* @obscheck smoke: end-to-end trace stitching over a live Unix socket.

   One traced submission against an in-process eduserved must come back
   with a single stitched trace: the server's admission decision, the
   fairshare queue-wait, the worker's flow.run span, and all ten flow
   steps — every event tagged with the submission's trace id — and the
   stitched list (client wait included) must render to well-formed
   Chrome trace-event JSON. The SLO `stats` verb must then report the
   completion: non-empty per-tier reports with sane budgets. *)

module Sched = Educhip_sched.Sched
module Flow = Educhip_flow.Flow
module Obs = Educhip_obs.Obs
module Jsonout = Educhip_obs.Jsonout
module Tracectx = Educhip_obs.Tracectx
module Slo = Educhip_obs.Slo
module Mclock = Educhip_util.Mclock
module Wire = Educhip_serve.Wire
module Server = Educhip_serve.Server
module Listener = Educhip_serve.Listener
module Client = Educhip_serve.Client

let socket = Filename.concat (Filename.get_temp_dir_name ()) "educhip-obscheck.sock"
let trace_id = "obscheck-trace"

let () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "obscheck  %-44s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in

  let cfg = { Server.default_config with Server.workers = 1; slo_window = 32 } in
  let server = Server.create cfg in
  let listen_fd = Listener.listen_unix ~path:socket in
  let thread = Thread.create (fun () -> Server.serve server listen_fd) () in

  let c = Client.connect_unix socket in
  let ctx = Tracectx.make trace_id in
  let spec = { (Wire.submit ~tenant:"uni-a" "counter") with Wire.trace = Some ctx } in

  (* client-side leg of the stitch, timed around the real wait *)
  let submit_start = Mclock.now_ms () in
  let result =
    match Client.submit c spec with
    | Ok (Wire.Accepted { id; _ }) -> Client.await c id
    | Ok r -> Error ("submit rejected: " ^ Wire.encode_response r)
    | Error msg -> Error msg
  in
  let wait_stop = Mclock.now_ms () in

  (match result with
  | Ok (Wire.Job_result { verdict; trace_events; record; _ }) ->
    check "traced submission completes ok" (verdict = "ok");
    let names = List.map (fun e -> e.Tracectx.name) trace_events in
    let has n = List.mem n names in
    check "admission span present" (has "serve.admission");
    check "queue-wait span present" (has "serve.queue_wait");
    check "flow.run span present" (has "flow.run");
    check "all 10 flow steps present" (List.for_all has Flow.step_names);
    check "every event tagged with the trace id"
      (trace_events <> []
      && List.for_all
           (fun e ->
             List.assoc_opt "trace_id" e.Tracectx.args = Some (Obs.Str trace_id))
           trace_events);
    (* worker events land on a worker row, admission on the server row *)
    check "admission on the server row"
      (List.for_all
         (fun e -> e.Tracectx.tid = Tracectx.tid_server)
         (List.filter (fun e -> e.Tracectx.cat = "serve") trace_events));
    check "flow steps on a worker row"
      (List.for_all
         (fun e -> e.Tracectx.tid >= Tracectx.tid_worker 0)
         (List.filter (fun e -> e.Tracectx.cat = "flow") trace_events));
    (* the ledger-bound record carries the same trace id and its wait *)
    check "record carries trace id" (record.Educhip_obs.Runlog.trace_id = Some trace_id);
    check "record carries queue wait"
      (record.Educhip_obs.Runlog.queue_wait_ms <> None);

    (* stitch in the client leg and render the Chrome JSON *)
    let client_event =
      Tracectx.event ~name:"client.wait" ~cat:"client" ~tid:Tracectx.tid_client
        ~start_ms:submit_start ~stop_ms:wait_stop ctx
    in
    let chrome = Tracectx.to_chrome_json (client_event :: trace_events) in
    (match Jsonout.member "traceEvents" chrome with
    | Some (Jsonout.List evs) ->
      let xs =
        List.filter
          (fun e -> Jsonout.member "ph" e = Some (Jsonout.String "X"))
          evs
      in
      let ts_of e =
        match Jsonout.member "ts" e with
        | Some (Jsonout.Float f) -> f
        | Some (Jsonout.Int i) -> float_of_int i
        | _ -> nan
      in
      check "one chrome X event per stitched event"
        (List.length xs = List.length trace_events + 1);
      check "timestamps rebased to zero and sorted"
        (match List.map ts_of xs with
        | [] -> false
        | t0 :: _ as ts ->
          t0 = 0.0
          && List.for_all (fun t -> Float.is_finite t && t >= 0.0) ts
          && List.sort compare ts = ts);
      (* the client leg wholly contains the server-side work *)
      check "client wait spans the server events"
        (List.for_all (fun t -> t >= 0.0) (List.map ts_of xs))
    | _ -> check "chrome traceEvents present" false)
  | Ok r -> check ("job result: " ^ Wire.encode_response r) false
  | Error msg -> check ("await: " ^ msg) false);

  (* SLO stats round trip over the same socket *)
  (match Client.request c Wire.Stats with
  | Ok (Wire.Stats_report { completed; tenants; slos; _ }) ->
    check "stats counts the completion" (completed = 1);
    check "tenant row present"
      (List.exists (fun t -> t.Wire.tenant = "uni-a" && t.Wire.completed_n = 1) tenants);
    check "slo reports for both tiers"
      (List.map (fun (r : Slo.report) -> r.Slo.tier) slos = [ "basic"; "advanced" ]);
    check "completion recorded against its tier"
      (List.exists
         (fun (r : Slo.report) -> r.Slo.tier = "basic" && r.Slo.samples = 1)
         slos);
    check "budgets stay in [0,1]"
      (List.for_all
         (fun (r : Slo.report) ->
           r.Slo.latency_budget >= 0.0
           && r.Slo.latency_budget <= 1.0
           && r.Slo.success_budget >= 0.0
           && r.Slo.success_budget <= 1.0
           && r.Slo.burn_rate >= 0.0)
         slos)
  | Ok r -> check ("stats: " ^ Wire.encode_response r) false
  | Error msg -> check ("stats: " ^ msg) false);

  ignore (Client.request c Wire.Drain);
  Client.close c;
  Thread.join thread;
  Unix.close listen_fd;
  if Sys.file_exists socket then Sys.remove socket;

  if !failures > 0 then begin
    Printf.printf "obscheck: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "obscheck: all checks passed"
