(* eduroute: consistent-hash router fronting N eduserved replicas.

   Examples:
     dune exec bin/eduroute.exe -- --spec cluster.spec --socket /tmp/eduroute.sock
     dune exec bin/eduroute.exe -- --replica r1=/tmp/r1.sock --replica r2=/tmp/r2.sock
     dune exec bin/eduroute.exe -- --spec cluster.spec --tcp 7079

   Clients speak the ordinary eduserved wire protocol to the router;
   submissions shard by job cache key onto the replica ring, health /
   stats / metrics come back merged cluster-wide, and the admin verbs
   `cluster_status` / `drain_replica` (eduflow cluster status|drain)
   manage membership. SIGINT/SIGTERM stop accepting and exit; replicas
   keep running — they may be shared. *)

module Wire = Educhip_serve.Wire
module Spec = Educhip_cluster.Spec
module Router = Educhip_cluster.Router

open Cmdliner

let build_spec spec_path replicas vnodes seed probe_interval staleness =
  let base =
    match spec_path with
    | Some path -> (
      if replicas <> [] then Error "--replica cannot be combined with --spec"
      else
        match Spec.load ~path with
        | Ok s -> Ok s
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
    | None -> (
      match
        List.map
          (fun spec ->
            match String.index_opt spec '=' with
            | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
            | None -> (spec, spec))
          replicas
      with
      | [] -> Error "no replicas: pass --spec FILE or --replica NAME=ADDR"
      | rs -> Ok { Spec.default with Spec.replicas = rs })
  in
  Result.map
    (fun (s : Spec.t) ->
      {
        s with
        Spec.vnodes = Option.value vnodes ~default:s.Spec.vnodes;
        seed = Option.value seed ~default:s.Spec.seed;
        probe_interval_ms = Option.value probe_interval ~default:s.Spec.probe_interval_ms;
        staleness_ms = Option.value staleness ~default:s.Spec.staleness_ms;
      })
    base

let run socket tcp_port spec_path replicas vnodes seed probe_interval staleness
    no_probe connect_timeout read_timeout =
  let spec =
    match build_spec spec_path replicas vnodes seed probe_interval staleness with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "eduroute: %s\n" msg;
      exit 2
  in
  let cfg =
    {
      (Router.config spec) with
      Router.connect_timeout_ms = connect_timeout;
      read_timeout_ms = read_timeout;
    }
  in
  let router =
    match Router.create cfg with
    | r -> r
    | exception Invalid_argument msg ->
      Printf.eprintf "eduroute: %s\n" msg;
      exit 2
  in
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Router.request_drain router)))
    [ Sys.sigint; Sys.sigterm ];
  if not no_probe then Router.start_prober router;
  let served =
    Educhip_serve.Listener.with_socket ~socket ~tcp:tcp_port (fun listen_fd where ->
        Printf.printf
          "eduroute: listening on %s (%d replicas, %d vnodes, hash seed %d, probing %s)\n%!"
          where
          (List.length spec.Spec.replicas)
          spec.Spec.vnodes spec.Spec.seed
          (if no_probe then "off"
           else Printf.sprintf "every %.0f ms" spec.Spec.probe_interval_ms);
        Router.serve router listen_fd)
  in
  Router.stop router;
  match served with
  | Ok () -> Printf.printf "eduroute: drained, shutting down\n%!"
  | Error msg ->
    Printf.eprintf "eduroute: %s\n" msg;
    exit 2

let socket_arg =
  Arg.(
    value & opt string "/tmp/eduroute.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Listen on TCP 127.0.0.1:$(docv) instead of the Unix socket.")

let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Cluster spec file: `replica NAME ADDR` lines plus optional `vnodes`, \
           `hash-seed`, `probe-interval-ms`, `staleness-ms` directives.")

let replica_arg =
  Arg.(
    value & opt_all string []
    & info [ "replica" ] ~docv:"NAME=ADDR"
        ~doc:
          "One eduserved replica (repeatable), as an alternative to --spec. ADDR \
           is a socket path or HOST:PORT.")

let vnodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per replica on the hash ring.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hash-seed" ] ~docv:"N"
        ~doc:
          "Ring hash seed; routers sharing a seed and replica list agree on every \
           placement.")

let probe_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "probe-interval-ms" ] ~docv:"MS" ~doc:"Replica health probe period.")

let staleness_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "staleness-ms" ] ~docv:"MS"
        ~doc:
          "A replica not probed successfully within this window is down: new \
           submissions fail over to its ring successors.")

let no_probe_arg =
  Arg.(
    value & flag
    & info [ "no-probe" ]
        ~doc:
          "Disable background health probing; liveness is then inferred only from \
           request failures.")

let connect_timeout_arg =
  Arg.(
    value & opt float 1000.0
    & info [ "connect-timeout-ms" ] ~docv:"MS" ~doc:"Router-to-replica connect deadline.")

let read_timeout_arg =
  Arg.(
    value & opt float 30_000.0
    & info [ "read-timeout-ms" ] ~docv:"MS" ~doc:"Router-to-replica response deadline.")

let cmd =
  let doc = "cluster router: shard eduserved submissions over a consistent-hash ring" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Fronts N $(b,eduserved) replicas behind one ordinary wire endpoint. \
         Every submission is placed by its content-addressed job key on a seeded \
         consistent-hash ring, so identical jobs always reach the same replica's \
         warm result cache, and replicas joining or leaving remap only their own \
         segment. Down replicas (stale health probes) are failed over \
         automatically under idempotency keys; health, stats, and metrics \
         aggregate cluster-wide with per-replica target labels.";
      `P
        "$(b,eduflow cluster status) shows the membership table; $(b,eduflow \
         cluster drain NAME) performs a rolling drain: stop routing to the \
         replica, wait out its in-flight jobs (their results stay fetchable from \
         the router), drain the process, remap the ring.";
      `S Manpage.s_see_also;
      `P "$(b,eduserved), $(b,eduflow submit), $(b,eduflow cluster).";
    ]
  in
  Cmd.v
    (Cmd.info "eduroute" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ socket_arg $ tcp_arg $ spec_arg $ replica_arg $ vnodes_arg
      $ seed_arg $ probe_interval_arg $ staleness_arg $ no_probe_arg
      $ connect_timeout_arg $ read_timeout_arg)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  exit (Cmd.eval cmd)
