module Obs = Educhip_obs.Obs

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (* signalled on push, requeue and close *)
  queue : Fairshare.t;
  mutable running : int;  (* popped, callback not yet returned *)
  mutable closed : bool;
  live : int Atomic.t;  (* spawned workers that have not exited *)
  mutable domains : Obs.collector option Domain.t list;
  mutable into : Obs.collector option;  (* installed when [start] ran *)
}

let create queue =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    queue;
    running = 0;
    closed = false;
    live = Atomic.make 0;
    domains = [];
    into = None;
  }

let push t ~weight (job : Manifest.job) =
  Mutex.protect t.mutex (fun () ->
      Fairshare.add_tenant t.queue ~weight job.tenant;
      Fairshare.push t.queue job;
      Condition.signal t.work)

let requeue t job =
  Mutex.protect t.mutex (fun () ->
      Fairshare.requeue t.queue job;
      Condition.signal t.work)

let depth t = Mutex.protect t.mutex (fun () -> Fairshare.depth t.queue)
let running t = Mutex.protect t.mutex (fun () -> t.running)
let idle t = Mutex.protect t.mutex (fun () -> Fairshare.depth t.queue = 0 && t.running = 0)

let close t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.work)

(* the next job, counted running in the same critical section as its
   pop; [None] once the pool is closed and empty. Call with [t.mutex]
   held. *)
let rec take t =
  match Fairshare.pop t.queue with
  | Some _ as job ->
    t.running <- t.running + 1;
    job
  | None when t.closed -> None
  | None ->
    Condition.wait t.work t.mutex;
    take t

let work t f worker =
  let rec loop () =
    match Mutex.protect t.mutex (fun () -> take t) with
    | None -> ()
    | Some job ->
      Fun.protect
        ~finally:(fun () -> Mutex.protect t.mutex (fun () -> t.running <- t.running - 1))
        (fun () -> f ~worker job);
      loop ()
  in
  loop ()

let start t ~workers f =
  let telemetry = Obs.enabled () in
  t.into <- Obs.installed ();
  Atomic.set t.live workers;
  t.domains <-
    List.init workers (fun worker ->
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.decr t.live)
              (fun () ->
                ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
                if telemetry then begin
                  let c = Obs.create () in
                  Obs.with_collector c (fun () -> work t f worker);
                  Some c
                end
                else begin
                  work t f worker;
                  None
                end)))

let join t =
  while Atomic.get t.live > 0 do
    Unix.sleepf 0.01
  done;
  let collectors = List.map Domain.join t.domains in
  t.domains <- [];
  Option.iter
    (fun into -> List.iter (Option.iter (fun c -> Obs.merge ~into c)) collectors)
    t.into
