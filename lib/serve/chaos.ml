module Mclock = Educhip_util.Mclock
module Rng = Educhip_util.Rng
module Files = Educhip_util.Files
module Jsonout = Educhip_obs.Jsonout
module Flow = Educhip_flow.Flow

type config = {
  daemon : string;
  state_dir : string;
  workers : int;
  jobs : Wire.submit_spec list;
  kills : int;
  seed : int;
  use_journal : bool;
}

type stats = {
  mode : string;
  jobs_total : int;
  kills : int;
  recoveries : int;
  replayed_total : int;
  restored_total : int;
  duplicate_probes : int;
  duplicates_suppressed : int;
  lost : int;
  mismatched : int;
  zero_loss : bool;
  bit_identical : bool;
  recovery_wall_ms_total : float;
  wall_ms : float;
}

let stats_json s =
  Jsonout.Obj
    [
      ("mode", Jsonout.String s.mode);
      ("jobs_total", Jsonout.Int s.jobs_total);
      ("kills", Jsonout.Int s.kills);
      ("recoveries", Jsonout.Int s.recoveries);
      ("replayed_total", Jsonout.Int s.replayed_total);
      ("restored_total", Jsonout.Int s.restored_total);
      ("duplicate_probes", Jsonout.Int s.duplicate_probes);
      ("duplicates_suppressed", Jsonout.Int s.duplicates_suppressed);
      ("lost", Jsonout.Int s.lost);
      ("mismatched", Jsonout.Int s.mismatched);
      ("zero_loss", Jsonout.Bool s.zero_loss);
      ("bit_identical", Jsonout.Bool s.bit_identical);
      ("recovery_wall_ms_total", Jsonout.Float s.recovery_wall_ms_total);
      ("wall_ms", Jsonout.Float s.wall_ms);
    ]

let ( / ) = Filename.concat

(* {1 Result identity}

   Verdict plus [Flow.ppa_signature], as in the serve smoke check: every
   field that QoR determinism promises, none of the fields (wall times,
   worker ids) that legitimately differ between runs. *)

let lost_sig = "<lost>"

let signature = function
  | Ok (Wire.Job_result { verdict; ppa; _ }) ->
    let ppa = match ppa with Some p -> Flow.ppa_signature p | None -> "-" in
    Printf.sprintf "%s [%s]" verdict ppa
  | Ok (Wire.Rejected { reason = Wire.Unknown_id _; _ }) -> lost_sig
  | Ok r -> "unexpected: " ^ Wire.encode_response r
  | Error msg -> "error: " ^ msg

let read_recovery path =
  match Files.read_file path with
  | None -> None
  | Some text -> (
    match Jsonout.of_string text with
    | exception Failure _ -> None
    | j ->
      let int k = Option.value (Jsonout.int k j) ~default:0 in
      Some
        ( int "replayed",
          int "restored_completed",
          Option.value (Jsonout.float "recovery_wall_ms" j) ~default:0.0 ))

(* submit through the retrying client: reconnect-and-resubmit is
   exactly the loop a real student-facing client runs, and with the
   idempotency key set it is safe by construction *)
let submit_retry ~seed ~socket spec =
  let policy =
    { Client.default_retry_policy with Client.attempts = 6; base_ms = 50.0; seed }
  in
  match
    Client.submit_with_retry ~policy
      ~connect:(fun () -> Client.connect_unix socket)
      spec
  with
  | Ok (c, resp) ->
    Client.close c;
    Ok resp
  | Error _ as e -> e

(* {1 The campaign} *)

let await_timeout_ms = 120_000.0

let run cfg =
  let t_start = Mclock.now_ms () in
  let n = List.length cfg.jobs in
  if n = 0 then invalid_arg "Chaos.run: empty job list";
  Files.mkdir_p cfg.state_dir;
  let socket = cfg.state_dir / "chaos.sock" in
  let log = cfg.state_dir / "daemon.log" in
  let journal_path = cfg.state_dir / "journal.eduj" in
  let recovery_json = journal_path ^ ".recovery.json" in
  let keyed =
    List.mapi
      (fun i s ->
        { s with Wire.idempotency_key = Some (Printf.sprintf "chaos-k%03d" i) })
      cfg.jobs
  in

  (* baseline: undisturbed run on fresh state — the reference answers *)
  let base_cache = cfg.state_dir / "cache-baseline" in
  let start ~cache_dir ?journal () =
    let d =
      Daemon.start ~exe:cfg.daemon ~socket ~cache_dir ~log ~workers:cfg.workers ?journal ()
    in
    Daemon.wait_ready d;
    d
  in
  Files.rm_rf base_cache;
  Files.rm_rf log;
  let d = start ~cache_dir:base_cache () in
  let baseline =
    let c = Client.connect_unix socket in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        List.map
          (fun s ->
            match Client.submit c s with
            | Ok (Wire.Accepted { id; _ }) ->
              signature (Client.await ~timeout_ms:await_timeout_ms c id)
            | Ok r -> failwith ("chaos: baseline submit refused: " ^ Wire.encode_response r)
            | Error msg -> failwith ("chaos: baseline submit failed: " ^ msg))
          keyed)
  in
  Daemon.drain d;

  (* chaos: same campaign, fresh state, SIGKILLs at seeded points *)
  let chaos_cache = cfg.state_dir / "cache-chaos" in
  Files.rm_rf chaos_cache;
  Files.rm_rf journal_path;
  Files.rm_rf recovery_json;
  let journal = if cfg.use_journal then Some journal_path else None in
  let rng = Rng.create ~seed:cfg.seed in
  let kills = max 0 (min cfg.kills n) in
  let kill_set =
    let points = Array.init n (fun i -> i + 1) in
    Rng.shuffle rng points;
    Array.sub points 0 kills |> Array.to_list |> List.sort_uniq compare
  in
  let d = ref (start ~cache_dir:chaos_cache ?journal ()) in
  let ids = Array.make n None in
  let duplicate_probes = ref 0 and duplicates_suppressed = ref 0 in
  let recoveries = ref 0 and replayed_total = ref 0 and restored_total = ref 0 in
  let recovery_wall = ref 0.0 in
  List.iteri
    (fun i s ->
      (* submit without awaiting: the queue must be holding work when
         the kill lands, or there is nothing to lose *)
      (match submit_retry ~seed:(cfg.seed + i) ~socket s with
      | Ok (Wire.Accepted { id; _ }) -> ids.(i) <- Some id
      | Ok r -> failwith ("chaos: submit refused: " ^ Wire.encode_response r)
      | Error msg -> failwith ("chaos: submit failed: " ^ msg));
      if List.mem (i + 1) kill_set then begin
        Daemon.kill !d;
        d := start ~cache_dir:chaos_cache ?journal ();
        incr recoveries;
        if cfg.use_journal then (
          match read_recovery recovery_json with
          | Some (rep, res, wall) ->
            replayed_total := !replayed_total + rep;
            restored_total := !restored_total + res;
            recovery_wall := !recovery_wall +. wall
          | None ->
            failwith ("chaos: no recovery stats after restart:\n" ^ Daemon.log_tail !d));
        (* the client's view of the crash: the ack may or may not have
           arrived, so it resubmits the same key. Under a journal the
           daemon must answer with the original id, not a second run. *)
        incr duplicate_probes;
        match submit_retry ~seed:(cfg.seed + 1000 + i) ~socket s with
        | Ok (Wire.Accepted { id; duplicate; _ }) ->
          if duplicate && ids.(i) = Some id then incr duplicates_suppressed
          else if cfg.use_journal then
            failwith
              (Printf.sprintf
                 "chaos: resubmission of %s not suppressed (got %s, duplicate=%b)"
                 (Option.value ids.(i) ~default:"?") id duplicate)
          (* without a journal the key table died with the process: the
             resubmission legitimately starts a fresh job; the original
             id stays lost and is scored below *)
        | Ok r -> failwith ("chaos: duplicate probe refused: " ^ Wire.encode_response r)
        | Error msg -> failwith ("chaos: duplicate probe failed: " ^ msg)
      end)
    keyed;

  (* score by original id against the baseline signatures *)
  let lost = ref 0 and mismatched = ref 0 in
  let c = Client.connect_unix socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iteri
        (fun i base_sig ->
          match ids.(i) with
          | None -> incr lost
          | Some id ->
            let s = signature (Client.await ~timeout_ms:await_timeout_ms c id) in
            if s = lost_sig then incr lost
            else if s <> base_sig then incr mismatched)
        baseline);
  Daemon.drain !d;
  {
    mode = (if cfg.use_journal then "journal" else "no_journal");
    jobs_total = n;
    kills = List.length kill_set;
    recoveries = !recoveries;
    replayed_total = !replayed_total;
    restored_total = !restored_total;
    duplicate_probes = !duplicate_probes;
    duplicates_suppressed = !duplicates_suppressed;
    lost = !lost;
    mismatched = !mismatched;
    zero_loss = !lost = 0;
    bit_identical = !mismatched = 0;
    recovery_wall_ms_total = !recovery_wall;
    wall_ms = Mclock.now_ms () -. t_start;
  }
