(* @clustercheck smoke: an in-process eduroute router fronting two real
   eduserved replicas (path = argv 1) over Unix sockets.

   A) Serial ≡ sharded: a 6-job two-tenant campaign run serially
      against one plain replica and sharded through the router must
      produce bit-identical per-job verdict+PPA signatures, and the
      sharded run must actually use more than one replica.
   B) Cache-key affinity: resubmitting every job through the router
      lands each on the replica that already ran it — all six come back
      served-from-cache at admission.
   C) Rolling drain under load: with a fresh campaign accepted and
      still in flight, `drain_replica` on the busier replica must wait
      the in-flight jobs out, keep every accepted job's result
      fetchable from the router afterwards (zero loss, signatures
      matching the baseline), and remap new submissions onto the
      surviving replica.
   D) Connection cap: with Listener.max_connections router connections
      open and answered, one more connection's request waits
      unanswered until one of them closes, and the router stays
      healthy. *)

module Wire = Educhip_serve.Wire
module Client = Educhip_serve.Client
module Listener = Educhip_serve.Listener
module Flow = Educhip_flow.Flow
module Spec = Educhip_cluster.Spec
module Router = Educhip_cluster.Router
module Daemon = Educhip_serve.Daemon
module Files = Educhip_util.Files

let dir = Filename.concat (Filename.get_temp_dir_name ()) "educhip-clustercheck"
let path name = Filename.concat dir name

(* design, preset, tenant: the chaoscheck mix, two tenants *)
let jobs =
  [
    ("counter", "open", "uni-a");
    ("gray8", "open", "course");
    ("lfsr16", "teaching", "uni-a");
    ("adder8", "open", "course");
    ("mult4", "open", "uni-a");
    ("popcount16", "teaching", "course");
  ]

let spec_of (design, preset, tenant) =
  { (Wire.submit ~tenant design) with Wire.preset }

let result_signature = function
  | Ok (Wire.Job_result { verdict; ppa; _ }) ->
    let ppa = match ppa with Some p -> Flow.ppa_signature p | None -> "-" in
    Printf.sprintf "%s [%s]" verdict ppa
  | Ok r -> "unexpected: " ^ Wire.encode_response r
  | Error msg -> "error: " ^ msg

(* {1 Real replica processes} *)

let start_daemon exe ~name =
  let d =
    Daemon.start ~exe ~socket:(path (name ^ ".sock")) ~cache_dir:(path ("cache-" ^ name))
      ~log:(path (name ^ ".log")) ~workers:1 ()
  in
  Daemon.wait_ready d;
  d

let () =
  (* a drained replica closes its socket under the in-process router;
     the write that follows must surface as EPIPE (a failover), not a
     SIGPIPE that kills the harness without a message *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      prerr_endline "usage: clustercheck <path-to-eduserved>";
      exit 2
    end
  in
  Files.rm_rf dir;
  Unix.mkdir dir 0o755;
  let failures = ref 0 in
  let check name ok =
    Printf.printf "clustercheck %-44s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in

  (* serial baseline: one plain replica, its own cold cache *)
  let base = start_daemon exe ~name:"base" in
  let baseline =
    let c = Client.connect_unix base.socket in
    let sigs =
      List.map
        (fun j ->
          match Client.submit c (spec_of j) with
          | Ok (Wire.Accepted { id; _ }) -> result_signature (Client.await c id)
          | Ok r -> "rejected: " ^ Wire.encode_response r
          | Error msg -> "error: " ^ msg)
        jobs
    in
    Client.close c;
    sigs
  in
  Daemon.drain base;
  check "serial baseline completed" (List.for_all (fun s -> s.[0] <> 'e') baseline);

  (* the cluster: two cold replicas behind an in-process router *)
  let r1 = start_daemon exe ~name:"r1" in
  let r2 = start_daemon exe ~name:"r2" in
  let cspec =
    {
      Spec.default with
      Spec.replicas = [ ("r1", r1.socket); ("r2", r2.socket) ];
      probe_interval_ms = 200.0;
      staleness_ms = 2000.0;
    }
  in
  let router = Router.create (Router.config cspec) in
  Router.start_prober router;
  let router_socket = path "eduroute.sock" in
  let listen_fd = Listener.listen_unix ~path:router_socket in
  let serve_thread = Thread.create (fun () -> Router.serve router listen_fd) () in
  let connect () = Client.connect_unix router_socket in

  (* A: sharded run, one concurrent client per job, ids namespaced *)
  let sharded =
    let submitted =
      List.map
        (fun j ->
          let c = connect () in
          match Client.submit c (spec_of j) with
          | Ok (Wire.Accepted { id; _ }) -> (c, Ok id)
          | Ok r -> (c, Error ("rejected: " ^ Wire.encode_response r))
          | Error msg -> (c, Error ("error: " ^ msg)))
        jobs
    in
    List.map
      (fun (c, outcome) ->
        let s =
          match outcome with
          | Ok id -> result_signature (Client.await c id)
          | Error msg -> msg
        in
        Client.close c;
        s)
      submitted
  in
  check "serial ≡ sharded (bit-identical signatures)" (sharded = baseline);
  let rows () =
    let c = connect () in
    let rows =
      match Client.request c Wire.Cluster_status with
      | Ok (Wire.Cluster_report { replicas }) -> replicas
      | _ -> []
    in
    Client.close c;
    rows
  in
  let routed_now = List.map (fun r -> (r.Wire.r_name, r.Wire.r_routed)) (rows ()) in
  check "sharding used both replicas"
    (List.for_all (fun (_, n) -> n > 0) routed_now && List.length routed_now = 2);

  (* B: affinity — every resubmission must hit its home replica's warm
     cache and be served terminal at admission *)
  let cached_serves =
    List.map
      (fun j ->
        let c = connect () in
        let r = Client.submit c (spec_of j) in
        let ok = match r with Ok (Wire.Accepted a) -> a.cached | _ -> false in
        Client.close c;
        ok)
      jobs
  in
  check "affinity: all 6 resubmits served from cache"
    (List.for_all Fun.id cached_serves);

  (* C: rolling drain with jobs in flight. The resubmits above were
     cache serves, so the replicas are idle; a fresh fault-seed variant
     of every job gives each replica new work to be drained around. *)
  let variant j = { (spec_of j) with Wire.fault_seed = 7 } in
  let inflight =
    List.map
      (fun j ->
        let c = connect () in
        match Client.submit c (variant j) with
        | Ok (Wire.Accepted { id; _ }) -> (c, Ok id)
        | Ok r -> (c, Error ("rejected: " ^ Wire.encode_response r))
        | Error msg -> (c, Error ("error: " ^ msg)))
      jobs
  in
  let victim =
    (* drain the replica holding more of the in-flight campaign *)
    match List.sort (fun (_, a) (_, b) -> compare b a) (List.map (fun r -> (r.Wire.r_name, r.Wire.r_routed)) (rows ())) with
    | (name, _) :: _ -> name
    | [] -> "r1"
  in
  let drain_result =
    let c = Client.connect_unix router_socket in
    let r = Client.request c (Wire.Drain_replica victim) in
    Client.close c;
    r
  in
  let drained_rows =
    match drain_result with
    | Ok (Wire.Cluster_report { replicas }) -> replicas
    | _ -> []
  in
  check
    (Printf.sprintf "drain %s acknowledged with membership table" victim)
    (match List.find_opt (fun r -> r.Wire.r_name = victim) drained_rows with
    | Some r -> r.Wire.r_removed
    | None -> false);
  (* every job accepted before the drain still resolves through the
     router, bit-identical to the baseline (fault seed does not change
     the PPA of a fault-free run) *)
  let post_drain =
    List.map
      (fun (c, outcome) ->
        let s =
          match outcome with
          | Ok id -> result_signature (Client.await c id)
          | Error msg -> msg
        in
        Client.close c;
        s)
      inflight
  in
  check "zero loss: all in-flight jobs resolved across the drain"
    (post_drain = baseline);
  (* the drained process has exited; reap it *)
  Daemon.drain (if victim = "r1" then r1 else r2);
  (* new work lands on the survivor *)
  let survivor = if victim = "r1" then "r2" else "r1" in
  let post_submit =
    let c = connect () in
    let r =
      match Client.submit c (spec_of (List.hd jobs)) with
      | Ok (Wire.Accepted { id; _ }) -> Ok id
      | Ok r -> Error (Wire.encode_response r)
      | Error msg -> Error msg
    in
    Client.close c;
    r
  in
  check
    (Printf.sprintf "post-drain submission remapped to %s" survivor)
    (match post_submit with
    | Ok id ->
      String.length id > String.length survivor
      && String.sub id 0 (String.length survivor + 1) = survivor ^ "/"
    | Error _ -> false);

  (* D: the router's connection cap *)
  let cap = Conncap.probe router_socket in
  check (Printf.sprintf "%d router connections answered" Listener.max_connections)
    cap.Conncap.all_answered;
  check "one more waits unanswered 200 ms" cap.Conncap.extra_waited;
  check "answered once a slot frees" cap.Conncap.extra_answered;
  check "router healthy after the cap" cap.Conncap.healthy;

  (* shut the cluster down *)
  let c = connect () in
  ignore (Client.request c Wire.Drain);
  Client.close c;
  Thread.join serve_thread;
  Router.stop router;
  Unix.close listen_fd;
  Daemon.drain (if victim = "r1" then r2 else r1);
  Files.rm_rf dir;
  if !failures > 0 then begin
    Printf.printf "clustercheck: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "clustercheck: all checks passed"
