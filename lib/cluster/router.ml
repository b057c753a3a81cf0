module Wire = Educhip_serve.Wire
module Client = Educhip_serve.Client
module Server = Educhip_serve.Server
module Scrape = Educhip_mon.Scrape
module Mclock = Educhip_util.Mclock

type config = {
  spec : Spec.t;
  retry : Client.retry_policy;
  connect_timeout_ms : float;
  read_timeout_ms : float;
  drain_await_timeout_ms : float;
  stash_max : int;
}

let config spec =
  {
    spec;
    retry = { Client.default_retry_policy with Client.seed = spec.Spec.seed };
    connect_timeout_ms = 1000.0;
    read_timeout_ms = 30_000.0;
    drain_await_timeout_ms = 60_000.0;
    stash_max = 512;
  }

type replica = {
  name : string;
  addr : string;
  mutable up : bool;
  mutable draining : bool;
  mutable removed : bool;
  mutable routed : int;
}

type job = { rep : string; local_id : string }

type t = {
  cfg : config;
  mutex : Mutex.t;
  mutable ring : Ring.t;
  replicas : replica list;  (* spec order *)
  jobs : (string, job) Hashtbl.t;  (* global id -> placement *)
  finished : (string, int * Wire.response) Hashtbl.t;
      (* global id -> (LRU stamp, terminal [Job_result]), stashed by a
         rolling drain so results outlive their replica; bounded by
         [cfg.stash_max], least-recently-touched evicted first *)
  mutable stash_seq : int;  (* monotone LRU clock for [finished] *)
  mutable stash_evicted : int;
  rejects : (string, int) Hashtbl.t;  (* router-local, by reason name *)
  start_ms : float;
  key_counter : int Atomic.t;
  drain_flag : bool Atomic.t;
  stop_flag : bool Atomic.t;
  scraper : Scrape.t;
  mutable prober : Thread.t option;
}

let create cfg =
  if cfg.stash_max < 1 then
    invalid_arg
      (Printf.sprintf "Router.create: stash_max must be >= 1, got %d" cfg.stash_max);
  let replicas =
    List.map
      (fun (name, addr) ->
        { name; addr; up = true; draining = false; removed = false; routed = 0 })
      cfg.spec.Spec.replicas
  in
  {
    cfg;
    mutex = Mutex.create ();
    ring = Spec.ring cfg.spec;
    replicas;
    jobs = Hashtbl.create 64;
    finished = Hashtbl.create 16;
    stash_seq = 0;
    stash_evicted = 0;
    rejects = Hashtbl.create 8;
    start_ms = Mclock.now_ms ();
    key_counter = Atomic.make 0;
    drain_flag = Atomic.make false;
    stop_flag = Atomic.make false;
    scraper =
      Scrape.create ~connect_timeout_ms:cfg.connect_timeout_ms
        ~read_timeout_ms:cfg.read_timeout_ms
        (List.map
           (fun (name, addr) -> { Scrape.target_name = name; addr })
           cfg.spec.Spec.replicas);
    prober = None;
  }

let scrape t = t.scraper

let find_replica t name = List.find_opt (fun r -> r.name = name) t.replicas

let count_reject t reason =
  let name = Wire.reject_reason_name reason in
  Mutex.protect t.mutex (fun () ->
      Hashtbl.replace t.rejects name
        (1 + Option.value (Hashtbl.find_opt t.rejects name) ~default:0))

let reject t reason =
  count_reject t reason;
  Wire.Rejected { reason; retry_after_ms = None }

let connect_to t rep =
  Client.connect ~connect_timeout_ms:t.cfg.connect_timeout_ms
    ~read_timeout_ms:t.cfg.read_timeout_ms rep.addr

(* {1 Global ids}

   Every replica numbers its own jobs from [j-000001], so the router
   namespaces: [r1/j-000042]. The prefix is the placement — a status or
   result request carries its own route. *)

(* {1 Result stash}

   The stash would otherwise grow without bound on a long-lived router —
   every drained-away result, forever. It is LRU-capped instead: each
   put or hit restamps the entry with a monotone clock, and a put past
   [stash_max] evicts the least-recently-touched entries. An evicted
   job's id leaves [jobs] too (it was terminal — keeping it would skew
   the pending arithmetic), so a later request for it answers
   [Unknown_id]: bounded memory traded against indefinitely replayable
   history, with the eviction count exported as
   [cluster_stash_evicted_total] so operators can see the trade happen.
   All three helpers expect the router mutex held. *)

let stash_put_locked t id resp =
  t.stash_seq <- t.stash_seq + 1;
  Hashtbl.replace t.finished id (t.stash_seq, resp);
  let excess = Hashtbl.length t.finished - t.cfg.stash_max in
  if excess > 0 then
    Hashtbl.fold (fun id (seq, _) acc -> (seq, id) :: acc) t.finished []
    |> List.sort compare
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun (_, id) ->
           Hashtbl.remove t.finished id;
           Hashtbl.remove t.jobs id;
           t.stash_evicted <- t.stash_evicted + 1)

let stash_find_locked t id =
  match Hashtbl.find_opt t.finished id with
  | None -> None
  | Some (_, resp) ->
    t.stash_seq <- t.stash_seq + 1;
    Hashtbl.replace t.finished id (t.stash_seq, resp);
    Some resp

let gid rep local = rep.name ^ "/" ^ local

let split_gid id =
  match String.index_opt id '/' with
  | Some i when i > 0 && i < String.length id - 1 ->
    Some (String.sub id 0 i, String.sub id (i + 1) (String.length id - i - 1))
  | _ -> None

(* {1 Fan-out}

   One request to every non-removed replica, fresh connection each (the
   router holds no lock across I/O, and connections are never shared
   between client threads). Success is fresh liveness evidence; failure
   downs the replica until a probe or fan-out succeeds again. *)

let try_request t rep req =
  match connect_to t rep with
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e))
  | exception Sys_error msg -> Error ("connect: " ^ msg)
  | conn ->
    let r = Client.request conn req in
    Client.close conn;
    r

let fan_out t req =
  List.filter_map
    (fun rep ->
      if rep.removed then None
      else
        match try_request t rep req with
        | Ok resp ->
          Mutex.protect t.mutex (fun () -> rep.up <- true);
          Some (rep.name, resp)
        | Error _ ->
          Mutex.protect t.mutex (fun () -> rep.up <- false);
          None)
    t.replicas

(* {1 Submission} *)

let mint_key t =
  Printf.sprintf "eduroute-%d-%d" (Unix.getpid ())
    (Atomic.fetch_and_add t.key_counter 1)

(* Walk [candidates] (ring successor order) for the first live one. The
   connect closure is called once per retry attempt by
   [Client.submit_with_retry]; each call first downs the replica whose
   connection just failed, then re-picks — so a transport error fails
   over to the next live ring member while the idempotency key keeps
   the retry single-execution. *)
let submit_connector t candidates =
  let current = ref None in
  let connect () =
    let rep =
      Mutex.protect t.mutex (fun () ->
          (match !current with
          | Some prev -> prev.up <- false
          | None -> ());
          List.find_opt (fun r -> r.up && not r.draining && not r.removed) candidates)
    in
    match rep with
    | None -> raise (Sys_error "no live replica")
    | Some r ->
      current := Some r;
      connect_to t r
  in
  (connect, current)

let handle_submit t (spec : Wire.submit_spec) =
  if Atomic.get t.drain_flag then reject t Wire.Draining
  else
    match Server.validate_spec spec with
    | Error msg -> reject t (Wire.Bad_request msg)
    | Ok job ->
      let key = Server.job_key job in
      let candidates =
        Mutex.protect t.mutex (fun () ->
            List.filter_map (find_replica t) (Ring.successors t.ring key))
      in
      let spec =
        match spec.Wire.idempotency_key with
        | Some _ -> spec
        | None -> { spec with Wire.idempotency_key = Some (mint_key t) }
      in
      let connect, current = submit_connector t candidates in
      (match Client.submit_with_retry ~policy:t.cfg.retry ~connect spec with
      | Error _ ->
        count_reject t Wire.Overloaded;
        Wire.Rejected
          {
            reason = Wire.Overloaded;
            retry_after_ms = Some t.cfg.spec.Spec.probe_interval_ms;
          }
      | Ok (conn, resp) -> (
        Client.close conn;
        match (resp, !current) with
        | Wire.Accepted a, Some rep ->
          let id = gid rep a.id in
          Mutex.protect t.mutex (fun () ->
              rep.routed <- rep.routed + 1;
              Hashtbl.replace t.jobs id { rep = rep.name; local_id = a.id });
          Wire.Accepted { a with id }
        | other, _ -> other))

(* {1 Status / result proxying} *)

let status_of_result ~id resp =
  match resp with
  | Wire.Job_result r ->
    Wire.Job_status
      {
        id;
        state = (if r.ppa = None then Wire.Failed else Wire.Done);
        verdict = Some r.verdict;
      }
  | other -> other

(* A held [result] must come back before this router's read timeout
   on the replica connection fires: forward at most half of it. *)
let proxy_job t ?wait_ms ~want_result id =
  match Mutex.protect t.mutex (fun () -> stash_find_locked t id) with
  | Some stashed -> if want_result then stashed else status_of_result ~id stashed
  | None -> (
    match split_gid id with
    | None -> reject t (Wire.Unknown_id id)
    | Some (rep_name, local_id) -> (
      match find_replica t rep_name with
      | None -> reject t (Wire.Unknown_id id)
      | Some rep when rep.removed ->
        (* drained away: every job it accepted is in [finished], so an
           id that isn't was never issued *)
        reject t (Wire.Unknown_id id)
      | Some rep -> (
        let req =
          if want_result then
            Wire.Result
              {
                id = local_id;
                wait_ms = Option.map (Float.min (t.cfg.read_timeout_ms /. 2.0)) wait_ms;
              }
          else Wire.Status local_id
        in
        match try_request t rep req with
        | Error _ ->
          Mutex.protect t.mutex (fun () -> rep.up <- false);
          (* transient: the replica may come back (journal recovery
             restores its jobs), so answer retryable, not unknown *)
          count_reject t Wire.Overloaded;
          Wire.Rejected
            {
              reason = Wire.Overloaded;
              retry_after_ms = Some t.cfg.spec.Spec.probe_interval_ms;
            }
        | Ok (Wire.Job_status s) -> Wire.Job_status { s with id }
        | Ok (Wire.Job_result r) -> Wire.Job_result { r with id }
        | Ok other -> other)))

(* {1 Aggregated views} *)

let local_rejects t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun reason n acc -> (reason, n) :: acc) t.rejects [])

let handle_health t =
  let rows = fan_out t Wire.Health in
  match Aggregate.merge_health rows with
  | Wire.Health_report h ->
    Wire.Health_report { h with draining = h.draining || Atomic.get t.drain_flag }
  | other -> other

let handle_stats t =
  let rows = fan_out t Wire.Stats in
  let router_row =
    ( "router",
      Wire.Stats_report
        {
          uptime_ms = Mclock.elapsed_ms t.start_ms;
          queue_depth = 0;
          running = 0;
          completed = 0;
          failed = 0;
          rejects = local_rejects t;
          tenants = [];
          slos = [];
        } )
  in
  Aggregate.merge_stats (router_row :: rows)

(* the router's own families, in the same [target=replica] namespace
   the merged replica samples use *)
let router_exposition t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# TYPE cluster_replica_up gauge\n";
  List.iter
    (fun rep ->
      Printf.bprintf buf "cluster_replica_up{target=\"%s\"} %d\n" rep.name
        (if rep.up && not rep.removed then 1 else 0))
    t.replicas;
  Buffer.add_string buf "# TYPE cluster_routed_total counter\n";
  List.iter
    (fun rep ->
      Printf.bprintf buf "cluster_routed_total{target=\"%s\"} %d\n" rep.name rep.routed)
    t.replicas;
  let stash_size, evicted =
    Mutex.protect t.mutex (fun () -> (Hashtbl.length t.finished, t.stash_evicted))
  in
  Buffer.add_string buf "# TYPE cluster_stash_size gauge\n";
  Printf.bprintf buf "cluster_stash_size %d\n" stash_size;
  Buffer.add_string buf "# TYPE cluster_stash_evicted_total counter\n";
  Printf.bprintf buf "cluster_stash_evicted_total %d\n" evicted;
  Buffer.contents buf

let handle_metrics t =
  let rows =
    List.filter_map
      (fun (name, resp) ->
        match resp with Wire.Metrics_text text -> Some (name, text) | _ -> None)
      (fan_out t Wire.Metrics)
  in
  Wire.Metrics_text (router_exposition t ^ Aggregate.merge_expositions rows)

let cluster_rows t =
  let health = fan_out t Wire.Health in
  List.map
    (fun rep ->
      let qd, run, comp, fail =
        match List.assoc_opt rep.name health with
        | Some (Wire.Health_report h) -> (h.queue_depth, h.running, h.completed, h.failed)
        | _ -> (0, 0, 0, 0)
      in
      {
        Wire.r_name = rep.name;
        r_addr = rep.addr;
        r_up = rep.up && not rep.removed;
        r_draining = rep.draining;
        r_removed = rep.removed;
        r_routed = rep.routed;
        r_queue_depth = qd;
        r_running = run;
        r_completed = comp;
        r_failed = fail;
      })
    t.replicas

(* {1 Rolling drain}

   Zero-loss order of operations: (1) stop routing to the replica;
   (2) wait until every job the router placed there is terminal,
   stashing each terminal result router-side; (3) only then drain the
   replica itself and remap its ring segment. Results of drained-away
   jobs are served from the stash, so nothing accepted is ever lost.
   A job the replica has already evicted from its own finished table
   is not stashed: its result was not held anywhere to carry over. *)

let pending_on t name =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun id job acc ->
          if job.rep = name && not (Hashtbl.mem t.finished id) then (id, job) :: acc
          else acc)
        t.jobs [])

let await_job t rep ~id ~local_id =
  match connect_to t rep with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error msg -> Error msg
  | conn -> (
    let r = Client.await ~timeout_ms:t.cfg.drain_await_timeout_ms conn local_id in
    Client.close conn;
    match r with
    | Ok (Wire.Job_result jr) ->
      Mutex.protect t.mutex (fun () ->
          stash_put_locked t id (Wire.Job_result { jr with id }));
      Ok ()
    | Ok (Wire.Rejected { reason = Wire.Unknown_id _; _ }) ->
      (* a replica evicts only terminal entries ([Server.max_finished]),
         so a live replica that no longer knows the id finished it and
         its result was already there to fetch: nothing left to stash *)
      Mutex.protect t.mutex (fun () -> Hashtbl.remove t.jobs id);
      Ok ()
    | Ok other -> Error ("await: unexpected " ^ Wire.encode_response other)
    | Error e -> Error e)

let drain_replica t name =
  match find_replica t name with
  | None -> reject t (Wire.Bad_request (Printf.sprintf "unknown replica %S" name))
  | Some rep when rep.removed ->
    reject t (Wire.Bad_request (Printf.sprintf "replica %S already drained" name))
  | Some rep -> (
    Mutex.protect t.mutex (fun () -> rep.draining <- true);
    (* a submission that picked this replica just before the flag flipped
       can still land; loop until the pending set is empty *)
    let rec settle () =
      match pending_on t name with
      | [] -> Ok ()
      | pend -> (
        let failed =
          List.filter_map
            (fun (id, job) ->
              match await_job t rep ~id ~local_id:job.local_id with
              | Ok () -> None
              | Error e -> Some (id, e))
            pend
        in
        match failed with
        | [] -> settle ()
        | (id, e) :: _ -> Error (Printf.sprintf "%s: %s" id e))
    in
    match settle () with
    | Error msg ->
      (* cannot prove its jobs terminal — abort, keep it routable by a
         later retry rather than stranding accepted work *)
      Mutex.protect t.mutex (fun () -> rep.draining <- false);
      reject t (Wire.Bad_request (Printf.sprintf "drain %s: %s" name msg))
    | Ok () ->
      (* all placed jobs stashed; now drain the process itself *)
      (match try_request t rep Wire.Drain with
      | Ok _ | Error _ -> ());
      (* wait for it to exit (health stops answering) — bounded, and
         purely cosmetic for correctness: it is already off the ring *)
      let deadline = Mclock.now_ms () +. t.cfg.drain_await_timeout_ms in
      let rec gone () =
        if Mclock.now_ms () >= deadline then ()
        else
          match try_request t rep Wire.Health with
          | Error _ -> ()
          | Ok _ ->
            Thread.delay 0.05;
            gone ()
      in
      gone ();
      Mutex.protect t.mutex (fun () ->
          rep.removed <- true;
          rep.up <- false;
          if List.length (Ring.members t.ring) > 1 then
            t.ring <- Ring.remove t.ring name);
      Wire.Cluster_report { replicas = cluster_rows t })

(* {1 Dispatch} *)

let pending_total t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.length t.jobs - Hashtbl.length t.finished)

let request_drain t = Atomic.set t.drain_flag true

let handle t req =
  match req with
  | Wire.Submit spec -> handle_submit t spec
  | Wire.Status id -> proxy_job t ~want_result:false id
  | Wire.Result { id; wait_ms } -> proxy_job t ?wait_ms ~want_result:true id
  | Wire.Health -> handle_health t
  | Wire.Metrics -> handle_metrics t
  | Wire.Stats -> handle_stats t
  | Wire.Drain ->
    request_drain t;
    (* router drain stops new routing; replicas (possibly shared with
       other routers) keep running their accepted jobs *)
    Wire.Drain_ack { pending = max 0 (pending_total t) }
  | Wire.Cluster_status -> Wire.Cluster_report { replicas = cluster_rows t }
  | Wire.Drain_replica name -> drain_replica t name

(* {1 Probing} *)

let prober_loop t =
  let window = t.cfg.spec.Spec.staleness_ms in
  while not (Atomic.get t.stop_flag) do
    let now = Mclock.now_ms () in
    ignore (Scrape.tick t.scraper ~now_ms:now);
    let now = Mclock.now_ms () in
    Mutex.protect t.mutex (fun () ->
        List.iter
          (fun rep ->
            if not rep.removed then begin
              let scraped = Scrape.up t.scraper ~now_ms:now ~staleness_window_ms:window rep.name in
              let never = Scrape.last_ok_ms t.scraper rep.name = None in
              (* a replica never yet probed keeps startup optimism for
                 one staleness window, then counts as down *)
              rep.up <- scraped || (never && Mclock.elapsed_ms t.start_ms < window)
            end)
          t.replicas);
    (* sleep in short slices so [stop] is honored promptly *)
    let rec nap left =
      if left > 0.0 && not (Atomic.get t.stop_flag) then begin
        let slice = Float.min left 50.0 in
        Thread.delay (slice /. 1000.0);
        nap (left -. slice)
      end
    in
    nap t.cfg.spec.Spec.probe_interval_ms
  done;
  Scrape.close t.scraper

let start_prober t =
  Mutex.protect t.mutex (fun () ->
      match t.prober with
      | Some _ -> ()
      | None -> t.prober <- Some (Thread.create prober_loop t))

let stop t =
  Atomic.set t.stop_flag true;
  match Mutex.protect t.mutex (fun () ->
      let p = t.prober in
      t.prober <- None;
      p)
  with
  | Some thread -> Thread.join thread
  | None -> ()

(* {1 Serving} *)

let serve t listen_fd =
  Educhip_serve.Listener.serve
    ~stop:(fun () -> Atomic.get t.drain_flag || Atomic.get t.stop_flag)
    ~reject:(count_reject t) ~handle:(handle t) listen_fd
