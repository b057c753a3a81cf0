module Manifest = Educhip_sched.Manifest
module Fairshare = Educhip_sched.Fairshare
module Pool = Educhip_sched.Pool
module Cache = Educhip_sched.Cache
module Artifact = Educhip_artifact.Artifact
module Sched = Educhip_sched.Sched
module Designs = Educhip_designs.Designs
module Pdk = Educhip_pdk.Pdk
module Fault = Educhip_fault.Fault
module Obs = Educhip_obs.Obs
module Tracectx = Educhip_obs.Tracectx
module Slo = Educhip_obs.Slo
module Runlog = Educhip_obs.Runlog
module Jsonout = Educhip_obs.Jsonout
module Mclock = Educhip_util.Mclock

type config = {
  workers : int;
  max_queue : int;
  basic : Ratelimit.limits;
  advanced : Ratelimit.limits;
  tiers : (string * Ratelimit.tier) list;
  cache : Cache.t option;
  artifacts : Educhip_artifact.Store.t option;
  ledger : string option;
  journal : string option;
  default_deadline_ms : float option;
  slo : (string * Slo.objective) list;
  slo_window : int;
}

let default_config =
  {
    workers = Sched.default_workers ();
    max_queue = 64;
    basic = Ratelimit.basic_defaults;
    advanced = Ratelimit.advanced_defaults;
    tiers = [];
    cache = None;
    artifacts = None;
    ledger = None;
    journal = None;
    default_deadline_ms = None;
    slo = Slo.default_objectives;
    slo_window = 256;
  }

let metric_names =
  [
    "serve.admitted";
    "serve.rejected";
    "serve.cache_hits";
    "serve.jobs_completed";
    "serve.jobs_failed";
    "serve.deadline_expired";
    "serve.idempotent_hits";
    "serve.journal_appends";
    "serve.replayed";
    "serve.conn_opened";
    "serve.conn_closed";
    "serve.conn_timeouts";
    "serve.conn_oversized";
  ]

let max_finished = 512

type entry = {
  id : string;
  job : Manifest.job;
  submitted_ms : float;
  deadline_at : float option;  (* absolute Mclock ms *)
  trace : Tracectx.t option;
  idem_key : string option;  (* evicted from [t.idem] with the entry *)
  mutable state : Wire.state;
  mutable wait_ms : float;  (* admission to dispatch; 0 for warm serves *)
  mutable result : Sched.job_result option;  (* Some iff Done or Failed *)
  mutable trace_events : Tracectx.event list;
      (* the request's stitched server-side trace, in append order:
         admission, queue-wait, then the worker's execution spans.
         Mutated under [t.mutex] only. *)
  mutable waiters : Unix.file_descr list;
      (* write ends of the pipes held [result] requests select on;
         [finish] writes a byte to each. Under [t.mutex]. *)
  mutable stamp : int;
      (* LRU clock value of the entry's newest [t.lru] slot; 0 while
         the job is not terminal, -1 once evicted *)
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  pool : Pool.t;  (* closed, under [mutex], when [draining] is set *)
  jobs : (string, entry) Hashtbl.t;
  limiter : Ratelimit.t;
  inflight : (string, int) Hashtbl.t;  (* tenant -> queued + running *)
  collector : Obs.collector;
  drain_flag : bool Atomic.t;  (* set by signal handlers / wire drain *)
  mutable draining : bool;  (* drain_flag acknowledged under the mutex *)
  mutable next_id : int;
  mutable completed : int;
  mutable failed : int;
  (* raw counts mirrored into [collector] by [sync_metrics]: completions
     happen in worker domains, whose Obs probes write to the worker's
     own collector, so the server materializes its counters from these
     fields in main-domain contexts instead *)
  mutable admitted : int;
  mutable cache_hits : int;
  mutable deadline_expired : int;
  mutable idem_hits : int;  (* under [mutex] *)
  mutable replayed : int;  (* set once by [recover], before [serve] *)
  journal_appends : int Atomic.t;  (* bumped by worker domains *)
  conn : Listener.counts;
  mutable journal : Journal.t option;
      (* opened by [recover] (after compaction) or lazily by the first
         append; [None] when [cfg.journal] is [None] *)
  idem : (string, string) Hashtbl.t;  (* idempotency key -> job id, under [mutex] *)
  lru : (int * entry) Queue.t;
      (* terminal entries by last use, oldest first; a slot whose stamp
         is no longer its entry's is stale and skipped *)
  mutable lru_clock : int;
  mutable finished_n : int;  (* terminal entries in [jobs] *)
  rejected : (string, int) Hashtbl.t;  (* reason -> count *)
  synced : (string, int) Hashtbl.t;  (* counter key -> value already exported *)
  slo : Slo.t;  (* per-tier objective accounting, under [mutex] *)
  tstats : (string, tstat) Hashtbl.t;  (* tenant -> recent completions *)
  start_ms : float;
}

and tstat = {
  mutable lats : float list;  (* end-to-end latencies, newest first *)
  mutable nlats : int;
  mutable t_completed : int;
  mutable t_failed : int;
}

let create cfg =
  if cfg.workers < 1 then
    invalid_arg (Printf.sprintf "Server.create: workers must be >= 1, got %d" cfg.workers);
  if cfg.max_queue < 0 then
    invalid_arg (Printf.sprintf "Server.create: max_queue must be >= 0, got %d" cfg.max_queue);
  let collector =
    match Obs.installed () with
    | Some c -> c
    | None ->
      let c = Obs.create () in
      Obs.install c;
      c
  in
  {
    cfg;
    mutex = Mutex.create ();
    pool = Pool.create (Fairshare.create []);
    jobs = Hashtbl.create 64;
    limiter = Ratelimit.create ~basic:cfg.basic ~advanced:cfg.advanced ~tiers:cfg.tiers ();
    inflight = Hashtbl.create 16;
    collector;
    drain_flag = Atomic.make false;
    draining = false;
    next_id = 0;
    completed = 0;
    failed = 0;
    admitted = 0;
    cache_hits = 0;
    deadline_expired = 0;
    idem_hits = 0;
    replayed = 0;
    journal_appends = Atomic.make 0;
    conn = Listener.counts ();
    journal = None;
    idem = Hashtbl.create 64;
    lru = Queue.create ();
    lru_clock = 0;
    finished_n = 0;
    rejected = Hashtbl.create 8;
    synced = Hashtbl.create 16;
    slo = Slo.create ~window:cfg.slo_window cfg.slo;
    tstats = Hashtbl.create 16;
    start_ms = Mclock.now_ms ();
  }

let request_drain t = Atomic.set t.drain_flag true

let tenant_inflight t tenant = Option.value (Hashtbl.find_opt t.inflight tenant) ~default:0

let tier_name_of t tenant = Ratelimit.tier_name (Ratelimit.tier_of t.limiter tenant)

let rec take_n n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take_n (n - 1) rest

(* One completed request (worker-run, warm serve, or deadline expiry)
   lands in both accounting planes: the tier's SLO window and the
   tenant's recent-latency sample for the stats verb. Call with
   [t.mutex] held. *)
let account_completion t ~tenant ~latency_ms ~ok =
  Slo.record t.slo ~tier:(tier_name_of t tenant) ~latency_ms ~ok;
  let ts =
    match Hashtbl.find_opt t.tstats tenant with
    | Some ts -> ts
    | None ->
      let ts = { lats = []; nlats = 0; t_completed = 0; t_failed = 0 } in
      Hashtbl.replace t.tstats tenant ts;
      ts
  in
  ts.lats <- latency_ms :: ts.lats;
  ts.nlats <- ts.nlats + 1;
  (* amortized cap: truncate back to the window once we overshoot 2x *)
  if ts.nlats > 2 * t.cfg.slo_window then begin
    ts.lats <- take_n t.cfg.slo_window ts.lats;
    ts.nlats <- t.cfg.slo_window
  end;
  if ok then ts.t_completed <- ts.t_completed + 1 else ts.t_failed <- ts.t_failed + 1

(* {1 Metrics}

   Only called from main-domain contexts (connection threads, the accept
   loop) with [t.mutex] held: the Obs registry is not thread-safe, and
   connection threads share the creating domain's collector. *)

let sync_counter t ?(labels = []) name current =
  let key = name ^ "|" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) in
  let prev = Option.value (Hashtbl.find_opt t.synced key) ~default:0 in
  if current > prev then begin
    Obs.add_counter ~labels name (current - prev);
    Hashtbl.replace t.synced key current
  end

let sync_metrics t =
  List.iter Obs.declare_counter (List.filter (( <> ) "serve.rejected") metric_names);
  (* one zero-registered family per reject reason, so a scraper can
     tell "no rejects yet" (a flat counter) from "series missing" *)
  List.iter
    (fun reason -> Obs.declare_counter ~labels:[ ("reason", reason) ] "serve.rejected")
    Wire.reject_reason_names;
  if t.cfg.artifacts <> None then List.iter Obs.declare_counter Artifact.metric_names;
  sync_counter t "serve.admitted" t.admitted;
  sync_counter t "serve.cache_hits" t.cache_hits;
  sync_counter t "serve.jobs_completed" t.completed;
  sync_counter t "serve.jobs_failed" t.failed;
  sync_counter t "serve.deadline_expired" t.deadline_expired;
  sync_counter t "serve.idempotent_hits" t.idem_hits;
  sync_counter t "serve.journal_appends" (Atomic.get t.journal_appends);
  sync_counter t "serve.replayed" t.replayed;
  sync_counter t "serve.conn_opened" (Atomic.get t.conn.Listener.opened);
  sync_counter t "serve.conn_closed" (Atomic.get t.conn.Listener.closed);
  sync_counter t "serve.conn_timeouts" (Atomic.get t.conn.Listener.timeouts);
  sync_counter t "serve.conn_oversized" (Atomic.get t.conn.Listener.oversized);
  Hashtbl.iter
    (fun reason n -> sync_counter t ~labels:[ ("reason", reason) ] "serve.rejected" n)
    t.rejected;
  Obs.set_gauge "serve.queue_depth" (float_of_int (Pool.depth t.pool));
  Obs.set_gauge "serve.running" (float_of_int (Pool.running t.pool))

let count_reject t reason =
  let name = Wire.reject_reason_name reason in
  Hashtbl.replace t.rejected name
    (1 + Option.value (Hashtbl.find_opt t.rejected name) ~default:0)

(* {1 Job bookkeeping} *)

let fresh_id t =
  let id = Printf.sprintf "j-%06d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

(* {1 Finished-job table}

   Every request that is admitted adds an entry (and its idempotency
   key), cache hits included, so a long-running server keeps only the
   [max_finished] most recently used terminal entries: a [status],
   [result] or duplicate submit restamps one, and the least recently
   used goes first, its key with it. Queued and running entries are
   never evicted. All three helpers expect [t.mutex] held. *)

let touch_locked t e =
  t.lru_clock <- t.lru_clock + 1;
  e.stamp <- t.lru_clock;
  Queue.push (t.lru_clock, e) t.lru;
  (* drop stale slots once they outnumber the live ones *)
  if Queue.length t.lru > 2 * (max_finished + 1) then begin
    let live = Queue.create () in
    Queue.iter (fun ((stamp, e) as slot) -> if e.stamp = stamp then Queue.push slot live) t.lru;
    Queue.clear t.lru;
    Queue.transfer live t.lru
  end

let evict_locked t e =
  e.stamp <- -1;
  Hashtbl.remove t.jobs e.id;
  (match e.idem_key with
  | Some key when Hashtbl.find_opt t.idem key = Some e.id -> Hashtbl.remove t.idem key
  | _ -> ());
  t.finished_n <- t.finished_n - 1

(* [e] has just become terminal *)
let finished_locked t e =
  t.finished_n <- t.finished_n + 1;
  touch_locked t e;
  while t.finished_n > max_finished do
    let stamp, old = Queue.pop t.lru in
    if old.stamp = stamp then evict_locked t old
  done

let table_sizes t = Mutex.protect t.mutex (fun () -> (Hashtbl.length t.jobs, Hashtbl.length t.idem))

(* {1 Write-ahead journal}

   [Journal.append] fsyncs before returning, so every call here is a
   durability point. Admission appends happen with [t.mutex] held (the
   acceptance must be on disk before the id escapes the lock and a
   worker — or the client — can act on it); worker-domain appends
   (started / done) take the locked variant only long enough to get
   the handle. The handle is opened lazily because [recover] compacts
   the file first — and compaction replaces the inode. *)

let journal_of_locked t =
  match t.cfg.journal with
  | None -> None
  | Some path -> (
    match t.journal with
    | Some _ as j -> j
    | None ->
      let j = Journal.open_ ~path in
      t.journal <- Some j;
      Some j)

(* call with [t.mutex] held *)
let journal_append_locked t entry =
  match journal_of_locked t with
  | None -> ()
  | Some j ->
    Journal.append j entry;
    Atomic.incr t.journal_appends

(* call with [t.mutex] released *)
let journal_append t entry =
  match Mutex.protect t.mutex (fun () -> journal_of_locked t) with
  | None -> ()
  | Some j ->
    Journal.append j entry;
    Atomic.incr t.journal_appends

let finish t e (result : Sched.job_result) =
  (* The ledger gets the per-request view — trace id and queue wait —
     while the cache (which already stored the record inside the
     executor) stays content-addressed and trace-free. *)
  let record =
    {
      result.Sched.record with
      Runlog.trace_id = Option.map Tracectx.trace_id e.trace;
      queue_wait_ms = Some e.wait_ms;
    }
  in
  let result = { result with Sched.wait_ms = e.wait_ms; record } in
  let failed = Sched.is_failed result.Sched.verdict in
  Mutex.protect t.mutex (fun () ->
      e.result <- Some result;
      e.trace_events <- e.trace_events @ result.Sched.trace_events;
      e.state <- (if failed then Wire.Failed else Wire.Done);
      (* wake the held [result] requests; each closes its own pipe *)
      List.iter (fun w -> ignore (Unix.write_substring w "x" 0 1)) e.waiters;
      e.waiters <- [];
      finished_locked t e;
      if failed then t.failed <- t.failed + 1 else t.completed <- t.completed + 1;
      account_completion t ~tenant:e.job.Manifest.tenant
        ~latency_ms:(Mclock.now_ms () -. e.submitted_ms) ~ok:(not failed);
      Hashtbl.replace t.inflight e.job.Manifest.tenant
        (max 0 (tenant_inflight t e.job.Manifest.tenant - 1)));
  (* [Sched.run_one] stored the result in the cache before returning,
     so once this Done is on disk a replay of the same journal will hit
     the cache instead of recomputing *)
  journal_append t (Journal.Done { id = e.id; verdict = result.Sched.verdict });
  match t.cfg.ledger with
  | Some path -> Runlog.append ~path record
  | None -> ()

(* {1 Workers}

   The pool callback: dispatch bookkeeping under the lock, then one
   completion path whether the job ran or its deadline expired while it
   waited in the queue. *)

let run_job t ~worker (job : Manifest.job) =
  let e, expired =
    Mutex.protect t.mutex (fun () ->
        let e = Hashtbl.find t.jobs (Printf.sprintf "j-%06d" job.Manifest.index) in
        let now = Mclock.now_ms () in
        e.wait_ms <- now -. e.submitted_ms;
        (match e.trace with
        | Some ctx ->
          e.trace_events <-
            e.trace_events
            @ [
                Tracectx.event ~name:"serve.queue_wait"
                  ~args:
                    [
                      ("tenant", Obs.Str job.Manifest.tenant);
                      ("job", Obs.Str e.id);
                    ]
                  ~start_ms:e.submitted_ms ~stop_ms:now ctx;
              ]
        | None -> ());
        let expired = match e.deadline_at with Some d -> now > d | None -> false in
        if expired then t.deadline_expired <- t.deadline_expired + 1
        else e.state <- Wire.Running;
        (e, expired))
  in
  finish t e
    (if expired then Sched.failed_result job "deadline_exceeded"
     else begin
       journal_append t (Journal.Started { id = e.id });
       Sched.run_one ?cache:t.cfg.cache ?artifacts:t.cfg.artifacts ~worker ?trace:e.trace job
     end)

(* {1 Request handling} *)

let reject t reason = Mutex.protect t.mutex (fun () -> count_reject t reason);
  Wire.Rejected { reason; retry_after_ms = None }

let validate_spec (s : Wire.submit_spec) =
  match Designs.find s.Wire.design with
  | exception Not_found -> Error (Printf.sprintf "unknown design %s" s.Wire.design)
  | _ -> (
    match Pdk.find_node s.Wire.node with
    | exception Not_found -> Error (Printf.sprintf "unknown node %s" s.Wire.node)
    | _ -> (
      match Manifest.preset_of_string s.Wire.preset with
      | None ->
        Error (Printf.sprintf "unknown preset %s (open|commercial|teaching)" s.Wire.preset)
      | Some preset -> (
        match List.map Fault.arming_of_string s.Wire.inject with
        | exception Invalid_argument msg -> Error msg
        | inject ->
          if s.Wire.priority < 1 then
            Error (Printf.sprintf "priority must be >= 1, got %d" s.Wire.priority)
          else
            Ok
              {
                Manifest.default_job with
                Manifest.design = s.Wire.design;
                tenant = s.Wire.tenant;
                priority = s.Wire.priority;
                preset;
                node = s.Wire.node;
                clock_ps = s.Wire.clock_ps;
                inject;
                fault_seed = s.Wire.fault_seed;
                retries =
                  Option.value s.Wire.retries ~default:Manifest.default_job.Manifest.retries;
              })))

(* The content-addressed identity of a validated job — the result-cache
   key, and (because equal keys mean bit-identical results) the routing
   key a cluster router shards submissions by. *)
let job_key (job : Manifest.job) =
  let netlist, cfg = Sched.elaborate job in
  Cache.job_key ~netlist ~cfg ~inject:job.Manifest.inject
    ~fault_seed:job.Manifest.fault_seed ~retries:job.Manifest.retries

(* Probe the result cache at admission: a warm submit is finished on the
   spot — no queue slot, no worker, no inflight charge. *)
let cached_result t (job : Manifest.job) =
  match t.cfg.cache with
  | None -> None
  | Some cache ->
    let key = job_key job in
    Option.map
      (fun (e : Cache.entry) ->
        {
          Sched.job;
          verdict = e.Cache.verdict;
          ppa = e.Cache.ppa;
          record = e.Cache.record;
          from_cache = true;
          requeues = 0;
          worker = -1;
          exec_ms = 0.0;
          wait_ms = 0.0;
          trace_events = [];
        })
      (Cache.lookup cache key)

let handle_submit t (spec : Wire.submit_spec) =
  match validate_spec spec with
  | Error msg -> reject t (Wire.Bad_request msg)
  | Ok proto_job ->
    let tenant = proto_job.Manifest.tenant in
    let limits = Ratelimit.limits_of t.limiter tenant in
    let tier = Ratelimit.tier_name (Ratelimit.tier_of t.limiter tenant) in
    let now = Mclock.now_ms () in
    (* Idempotent resubmission: a key the server has already admitted
       short-circuits to the original job's id — checked {e before} the
       rate limiter (a safe retry must not burn tokens) and re-checked
       inside every admission critical section (two connections racing
       the same key). Call with [t.mutex] held. *)
    let dup_response () =
      match spec.Wire.idempotency_key with
      | None -> None
      | Some key -> (
        match Hashtbl.find_opt t.idem key with
        | None -> None
        | Some id ->
          t.idem_hits <- t.idem_hits + 1;
          let terminal =
            match Hashtbl.find_opt t.jobs id with
            | Some e when e.result <> None ->
              touch_locked t e;
              true
            | Some _ | None -> false
          in
          Some (Wire.Accepted { id; tier; cached = terminal; duplicate = true }))
    in
    let register_key id =
      match spec.Wire.idempotency_key with
      | Some key -> Hashtbl.replace t.idem key id
      | None -> ()
    in
    let gate =
      Mutex.protect t.mutex (fun () ->
          match dup_response () with
          | Some resp -> `Duplicate resp
          | None ->
            if t.draining then `Reject (Wire.Draining, None)
            else
              match Ratelimit.admit t.limiter ~now_ms:now tenant with
              | Error wait -> `Reject (Wire.Rate_limited, Some wait)
              | Ok () -> `Admitted)
    in
    (match gate with
    | `Duplicate resp -> resp
    | `Reject (reason, retry_after_ms) ->
      Mutex.protect t.mutex (fun () -> count_reject t reason);
      Wire.Rejected { reason; retry_after_ms }
    | `Admitted -> (
      (* one admission event per accepted submission: handler entry to
         verdict, tagged with the decision the gate chain reached *)
      let admission_event decision =
        match spec.Wire.trace with
        | None -> []
        | Some ctx ->
          [
            Tracectx.event ~name:"serve.admission"
              ~args:
                [
                  ("tenant", Obs.Str tenant);
                  ("tier", Obs.Str tier);
                  ("decision", Obs.Str decision);
                ]
              ~start_ms:now ~stop_ms:(Mclock.now_ms ()) ctx;
          ]
      in
      (* elaborate the design and probe the cache outside the lock —
         admission must stay cheap for everyone else *)
      match cached_result t proto_job with
      | Some result ->
        let record =
          {
            result.Sched.record with
            Runlog.trace_id = Option.map Tracectx.trace_id spec.Wire.trace;
            queue_wait_ms = Some 0.0;
          }
        in
        let resp, fresh =
          Mutex.protect t.mutex (fun () ->
              match dup_response () with
              | Some resp ->
                (* lost the key race to a concurrent twin: hand back the
                   token this submission charged *)
                Ratelimit.refund t.limiter tenant;
                (resp, false)
              | None ->
                let id = fresh_id t in
                let job = { proto_job with Manifest.index = t.next_id - 1 } in
                let e =
                  {
                    id;
                    job;
                    submitted_ms = now;
                    deadline_at = None;
                    trace = spec.Wire.trace;
                    idem_key = spec.Wire.idempotency_key;
                    state = Wire.Done;
                    wait_ms = 0.0;
                    result = Some { result with Sched.job; record };
                    trace_events = admission_event "cache_hit";
                    waiters = [];
                    stamp = 0;
                  }
                in
                Hashtbl.replace t.jobs id e;
                register_key id;
                finished_locked t e;
                (* warm serves are terminal at admission: journal the
                   accept and the done as one durable pair *)
                journal_append_locked t (Journal.Accepted { id; spec });
                journal_append_locked t
                  (Journal.Done { id; verdict = result.Sched.verdict });
                t.admitted <- t.admitted + 1;
                t.cache_hits <- t.cache_hits + 1;
                t.completed <- t.completed + 1;
                account_completion t ~tenant
                  ~latency_ms:(Mclock.now_ms () -. now)
                  ~ok:(not (Sched.is_failed result.Sched.verdict));
                (Wire.Accepted { id; tier; cached = true; duplicate = false }, true))
        in
        (* ledger parity with batch: cache hits are recorded too *)
        (if fresh then
           match t.cfg.ledger with
           | Some path -> Runlog.append ~path record
           | None -> ());
        resp
      | None ->
        let verdict =
          Mutex.protect t.mutex (fun () ->
              match dup_response () with
              | Some resp ->
                Ratelimit.refund t.limiter tenant;
                resp
              | None ->
              if tenant_inflight t tenant >= limits.Ratelimit.max_inflight then begin
                Ratelimit.refund t.limiter tenant;
                count_reject t Wire.Quota_exceeded;
                Wire.Rejected { reason = Wire.Quota_exceeded; retry_after_ms = None }
              end
              else if t.draining || Pool.depth t.pool >= t.cfg.max_queue then begin
                (* a drain that began after the gate: the pool is
                   closed, so nothing may be pushed *)
                let reason = if t.draining then Wire.Draining else Wire.Overloaded in
                Ratelimit.refund t.limiter tenant;
                count_reject t reason;
                Wire.Rejected { reason; retry_after_ms = None }
              end
              else begin
                let id = fresh_id t in
                (* the wire id doubles as the fairshare tie-breaking
                   index: j-%06d of index *)
                let job = { proto_job with Manifest.index = t.next_id - 1 } in
                let deadline_ms =
                  match spec.Wire.deadline_ms with
                  | Some _ as d -> d
                  | None -> t.cfg.default_deadline_ms
                in
                let e =
                  {
                    id;
                    job;
                    submitted_ms = now;
                    deadline_at = Option.map (fun d -> now +. d) deadline_ms;
                    trace = spec.Wire.trace;
                    idem_key = spec.Wire.idempotency_key;
                    state = Wire.Queued;
                    wait_ms = 0.0;
                    result = None;
                    trace_events = admission_event "queued";
                    waiters = [];
                    stamp = 0;
                  }
                in
                Hashtbl.replace t.jobs id e;
                register_key id;
                (* durability point: the accept hits disk while the
                   mutex still prevents any worker from popping the
                   job, so [started]/[done] can never precede it *)
                journal_append_locked t (Journal.Accepted { id; spec });
                Pool.push t.pool ~weight:limits.Ratelimit.fair_weight job;
                t.admitted <- t.admitted + 1;
                Hashtbl.replace t.inflight tenant (tenant_inflight t tenant + 1);
                Wire.Accepted { id; tier; cached = false; duplicate = false }
              end)
        in
        verdict))

(* {1 Held results}

   A [result] carrying [wait_ms] for a job that is not terminal yet
   parks its connection thread on a pipe of its own until [finish]
   writes to it or the wait runs out: no CPU while waiting, and the
   pipe is closed on every path. Returns the ms held, [None] if the
   request did not wait. *)

let hold t (req : Wire.request) =
  let parked =
    match req with
    | Wire.Result { id; wait_ms = Some wait_ms } when wait_ms > 0.0 ->
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.jobs id with
          | Some e when e.result = None ->
            let r, w = Unix.pipe ~cloexec:true () in
            e.waiters <- w :: e.waiters;
            Some (e, r, w, Float.min wait_ms Wire.max_wait_ms)
          | Some _ | None -> None)
    | _ -> None
  in
  Option.map
    (fun (e, r, w, wait_ms) ->
      let t0 = Mclock.now_ms () in
      let rec wait () =
        let left = wait_ms -. Mclock.elapsed_ms t0 in
        if left > 0.0 then
          match Unix.select [ r ] [] [] (left /. 1000.0) with
          | [], _, _ -> wait ()
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect t.mutex (fun () -> e.waiters <- List.filter (( != ) w) e.waiters);
          Unix.close r;
          Unix.close w)
        wait;
      let stop = Mclock.now_ms () in
      Mutex.protect t.mutex (fun () ->
          Option.iter
            (fun ctx ->
              e.trace_events <-
                e.trace_events
                @ [
                    Tracectx.event ~name:"serve.result_wait"
                      ~args:[ ("job", Obs.Str e.id) ]
                      ~start_ms:t0 ~stop_ms:stop ctx;
                  ])
            e.trace);
      stop -. t0)
    parked

(* the answer once any hold is over *)
let answer t (req : Wire.request) =
  match req with
  | Wire.Submit spec -> handle_submit t spec
  | Wire.Status id | Wire.Result { id; _ } ->
    Mutex.protect t.mutex (fun () ->
        match (Hashtbl.find_opt t.jobs id, req) with
        | None, _ ->
          count_reject t (Wire.Unknown_id id);
          Wire.Rejected { reason = Wire.Unknown_id id; retry_after_ms = None }
        | Some ({ result = Some r; trace_events; _ } as e), Wire.Result _ ->
          touch_locked t e;
          Wire.Job_result
            {
              id;
              verdict = r.Sched.verdict;
              from_cache = r.Sched.from_cache;
              exec_ms = r.Sched.exec_ms;
              wait_ms = r.Sched.wait_ms;
              ppa = r.Sched.ppa;
              record = r.Sched.record;
              trace_events;
            }
        | Some e, _ ->
          if e.result <> None then touch_locked t e;
          Wire.Job_status
            { id; state = e.state; verdict = Option.map (fun r -> r.Sched.verdict) e.result })
  | Wire.Health ->
    Mutex.protect t.mutex (fun () ->
        sync_metrics t;
        Wire.Health_report
          {
            uptime_ms = Mclock.elapsed_ms t.start_ms;
            queue_depth = Pool.depth t.pool;
            running = Pool.running t.pool;
            completed = t.completed;
            failed = t.failed;
            draining = t.draining || Atomic.get t.drain_flag;
            workers = t.cfg.workers;
          })
  | Wire.Metrics ->
    (* copy the registry under the lock, render outside it: exposition
       sorts every histogram window, and doing that under [t.mutex]
       stalled admission for the duration of each scrape *)
    let frozen =
      Mutex.protect t.mutex (fun () ->
          sync_metrics t;
          Obs.registry_copy t.collector)
    in
    Wire.Metrics_text (Obs.metrics_text frozen)
  | Wire.Stats ->
    Mutex.protect t.mutex (fun () ->
        let rejects =
          (* every reason, zeros included, so a monitor sees the series
             (flat at 0) before the first reject instead of a gap *)
          List.map
            (fun reason ->
              (reason, Option.value (Hashtbl.find_opt t.rejected reason) ~default:0))
            Wire.reject_reason_names
          |> List.sort compare
        in
        let tenants =
          Hashtbl.fold
            (fun tenant ts acc ->
              {
                Wire.tenant;
                tier = tier_name_of t tenant;
                inflight = tenant_inflight t tenant;
                completed_n = ts.t_completed;
                failed_n = ts.t_failed;
                p50_ms =
                  (if ts.lats = [] then 0.0
                   else Educhip_util.Stats.percentile 50.0 ts.lats);
                p99_ms =
                  (if ts.lats = [] then 0.0
                   else Educhip_util.Stats.percentile 99.0 ts.lats);
              }
              :: acc)
            t.tstats []
          |> List.sort (fun a b -> compare a.Wire.tenant b.Wire.tenant)
        in
        Wire.Stats_report
          {
            uptime_ms = Mclock.elapsed_ms t.start_ms;
            queue_depth = Pool.depth t.pool;
            running = Pool.running t.pool;
            completed = t.completed;
            failed = t.failed;
            rejects;
            tenants;
            slos = Slo.reports t.slo;
          })
  | Wire.Drain ->
    request_drain t;
    Mutex.protect t.mutex (fun () ->
        t.draining <- true;
        Pool.close t.pool;
        Wire.Drain_ack { pending = Pool.depth t.pool + Pool.running t.pool })
  | Wire.Cluster_status | Wire.Drain_replica _ ->
    (* router-only admin surface: a single replica has no membership
       table, so answer typed rather than pretending to be a cluster *)
    Wire.Rejected
      {
        reason = Wire.Bad_request "router-only op (this is a single eduserved replica)";
        retry_after_ms = None;
      }

let handle t req =
  ignore (hold t req);
  answer t req

(* {1 Recovery} *)

type recovery_stats = {
  entries_read : int;
  dropped_lines : int;
  restored_completed : int;
  replayed : int;
  started_incomplete : int;
  invalid_specs : int;
  recovery_wall_ms : float;
}

let recovery_stats_json s =
  Jsonout.Obj
    [
      ("entries_read", Jsonout.Int s.entries_read);
      ("dropped_lines", Jsonout.Int s.dropped_lines);
      ("restored_completed", Jsonout.Int s.restored_completed);
      ("replayed", Jsonout.Int s.replayed);
      ("started_incomplete", Jsonout.Int s.started_incomplete);
      ("invalid_specs", Jsonout.Int s.invalid_specs);
      ("recovery_wall_ms", Jsonout.Float s.recovery_wall_ms);
    ]

let id_number id =
  if String.length id > 2 && String.sub id 0 2 = "j-" then
    int_of_string_opt (String.sub id 2 (String.length id - 2))
  else None

(* Re-register a journaled job under its {e original} id, so clients
   polling [Result j-000042] across the crash still get an answer, and
   bump the id allocator past it so new admissions never collide. *)
let register_recovered t ~id ~(spec : Wire.submit_spec) (result : Sched.job_result) =
  let failed = Sched.is_failed result.Sched.verdict in
  Mutex.protect t.mutex (fun () ->
      let e =
        {
          id;
          job = result.Sched.job;
          submitted_ms = Mclock.now_ms ();
          deadline_at = None;
          trace = None;
          idem_key = spec.Wire.idempotency_key;
          state = (if failed then Wire.Failed else Wire.Done);
          wait_ms = 0.0;
          result = Some result;
          trace_events = [];
          waiters = [];
          stamp = 0;
        }
      in
      Hashtbl.replace t.jobs id e;
      (match spec.Wire.idempotency_key with
      | Some key -> Hashtbl.replace t.idem key id
      | None -> ());
      finished_locked t e;
      (match id_number id with
      | Some n when n >= t.next_id -> t.next_id <- n + 1
      | _ -> ());
      if failed then t.failed <- t.failed + 1 else t.completed <- t.completed + 1)

let recover t =
  match t.cfg.journal with
  | None -> None
  | Some path ->
    let t0 = Mclock.now_ms () in
    let rec_ = Journal.recover ~path in
    let invalid = ref 0 and restored = ref 0 and replayed = ref 0 in
    let survivors = ref [] in
    let reindex id job =
      match id_number id with
      | Some n -> { job with Manifest.index = n }
      | None -> job
    in
    let each ~on_ok (id, spec) =
      match validate_spec spec with
      | Error _ ->
        (* a spec that no longer validates (design or node dropped
           between runs) cannot be replayed — counted, not fatal *)
        incr invalid
      | Ok job -> on_ok id spec (reindex id job)
    in
    (* Jobs that had finished: restore from the result cache — the
       [done] was journaled only after the executor's cache store, so a
       probe is expected to hit. A miss (cache cleared between runs)
       re-executes, which is deterministic and lands on the same
       result. *)
    List.iter
      (each ~on_ok:(fun id spec job ->
           let result =
             match cached_result t job with
             | Some r -> r
             | None ->
               Sched.run_one ?cache:t.cfg.cache ?artifacts:t.cfg.artifacts job
           in
           register_recovered t ~id ~spec result;
           incr restored;
           survivors := (id, spec, result) :: !survivors))
      (* only the newest [max_finished] could stay in the table *)
      (let skip = List.length rec_.Journal.completed - max_finished in
       List.filteri
         (fun i _ -> i >= skip)
         (List.map (fun (id, spec, _verdict) -> (id, spec)) rec_.Journal.completed));
    (* The crash signature: accepted, never finished. Replay through the
       same executor, in original admission order — deadlines are not
       re-imposed (the accepted job is owed a result, however late). *)
    List.iter
      (each ~on_ok:(fun id spec job ->
           let result =
             Sched.run_one ?cache:t.cfg.cache ?artifacts:t.cfg.artifacts job
           in
           register_recovered t ~id ~spec result;
           incr replayed;
           survivors := (id, spec, result) :: !survivors))
      rec_.Journal.pending;
    t.replayed <- !replayed;
    (* Compact to one accepted+done pair per surviving job, then (re)open
       the append handle — the rename gave the path a fresh inode. *)
    let entries =
      List.concat_map
        (fun (id, spec, (r : Sched.job_result)) ->
          [
            Journal.Accepted { id; spec };
            Journal.Done { id; verdict = r.Sched.verdict };
          ])
        (List.filter
           (fun (id, _, _) -> Mutex.protect t.mutex (fun () -> Hashtbl.mem t.jobs id))
           (List.rev !survivors))
    in
    Journal.compact ~path entries;
    Mutex.protect t.mutex (fun () -> t.journal <- Some (Journal.open_ ~path));
    Some
      {
        entries_read = rec_.Journal.entries_read;
        dropped_lines = rec_.Journal.dropped;
        restored_completed = !restored;
        replayed = !replayed;
        started_incomplete = rec_.Journal.started_incomplete;
        invalid_specs = !invalid;
        recovery_wall_ms = Mclock.now_ms () -. t0;
      }

(* {1 Serving} *)

let op_label = function
  | Wire.Submit _ -> "submit"
  | Wire.Status _ -> "status"
  | Wire.Result _ -> "result"
  | Wire.Health -> "health"
  | Wire.Metrics -> "metrics"
  | Wire.Stats -> "stats"
  | Wire.Drain -> "drain"
  | Wire.Cluster_status -> "cluster_status"
  | Wire.Drain_replica _ -> "drain_replica"

(* the listener's [handle]: request latency by op, response write and
   any result hold excluded; the hold is observed on its own *)
let handle_timed t req =
  let t0 = Mclock.now_ms () in
  let held = hold t req in
  let resp = answer t req in
  let total = Mclock.elapsed_ms t0 in
  Mutex.protect t.mutex (fun () ->
      Obs.observe ~labels:[ ("op", op_label req) ] "serve.request_ms"
        (total -. Option.value held ~default:0.0);
      Option.iter (Obs.observe "serve.result_wait_ms") held);
  resp

let serve t listen_fd =
  Pool.start t.pool ~workers:t.cfg.workers (run_job t);
  let drained () =
    Mutex.protect t.mutex (fun () ->
        (* fold an async drain request (signal handler) into the locked
           state and close the pool *)
        if Atomic.get t.drain_flag && not t.draining then begin
          t.draining <- true;
          Pool.close t.pool
        end;
        t.draining && Pool.idle t.pool)
  in
  Listener.serve ~counts:t.conn ~stop:drained
    ~reject:(fun reason -> Mutex.protect t.mutex (fun () -> count_reject t reason))
    ~handle:(handle_timed t) listen_fd;
  Pool.join t.pool;
  Mutex.protect t.mutex (fun () ->
      (* every accepted job is terminal here, so the journal's work is
         done for this life of the process *)
      (match t.journal with
      | Some j ->
        Journal.close j;
        t.journal <- None
      | None -> ());
      sync_metrics t)
