(* The benchmark's in-process side. run.py generates the seeded request
   sequence, starts this program, and reads what it prints: one JSON
   object per line on stdout ("ready", "setup", "warm", "job", "end",
   "layer", "check", "replay"). All statistics are computed by run.py; this program
   only runs the work, timestamps it, and checks results.

     harness.exe flow  --jobs FILE --round N --warm FILE --seconds S --trace 0|1
                       [--setup-only]
     harness.exe serve --jobs FILE --warm FILE --seconds S --trace 0|1
                       --bin DIR --dir DIR

   A job line is "CLASS DESIGN PRESET TENANT CLOCK_PS|- FAULT_SEED".
   Every layer is timed from outside, around calls into public functions:
   the flow steps through a [Flow.memo] hook whose probe always misses
   and whose save timestamps the end of each step. *)

module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Designs = Educhip_designs.Designs
module Flow = Educhip_flow.Flow
module Obs = Educhip_obs.Obs
module Jsonout = Educhip_obs.Jsonout
module Mclock = Educhip_util.Mclock
module Stats = Educhip_util.Stats
module Cec = Educhip_cec.Cec
module Fault = Educhip_fault.Fault
module Guard = Educhip_fault.Guard
module Manifest = Educhip_sched.Manifest
module Cache = Educhip_sched.Cache
module Server = Educhip_serve.Server
module Client = Educhip_serve.Client
module Wire = Educhip_serve.Wire
module Journal = Educhip_serve.Journal
module Artifact = Educhip_artifact.Artifact
module Astore = Educhip_artifact.Store
module Scrape = Educhip_mon.Scrape

let out_mutex = Mutex.create ()

let emit ev fields =
  let line = Jsonout.to_string (Jsonout.Obj (("ev", Jsonout.String ev) :: fields)) in
  Mutex.protect out_mutex (fun () ->
      print_string line;
      print_char '\n';
      flush stdout)

let str s = Jsonout.String s
let num f = Jsonout.Float f
let int i = Jsonout.Int i
let bool b = Jsonout.Bool b

(* {1 Requests} *)

type job = {
  cls : string;  (** flow | repeat | edit | cold *)
  design : string;
  preset : string;
  tenant : string;
  clock_ps : float option;
  fault_seed : int;
}

let spec_id j = j.design ^ "/" ^ j.preset

let job_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ cls; design; preset; tenant; clock; seed ] ->
    {
      cls;
      design;
      preset;
      tenant;
      clock_ps = (if clock = "-" then None else Some (float_of_string clock));
      fault_seed = int_of_string seed;
    }
  | _ -> failwith ("bad job line: " ^ line)

let read_jobs path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map job_of_line |> Array.of_list

let wire_spec j =
  { (Wire.submit ~tenant:j.tenant j.design) with
    Wire.preset = j.preset; clock_ps = j.clock_ps; fault_seed = j.fault_seed }

(* The manifest job, flow config and guard policy a replica derives
   from a submission. *)
let prepare j =
  let mj = match Server.validate_spec (wire_spec j) with Ok m -> m | Error e -> failwith e in
  let cfg =
    Flow.config ~node:(Pdk.find_node mj.Manifest.node) ?clock_period_ps:mj.Manifest.clock_ps
      mj.Manifest.preset
  in
  (mj, cfg, { Guard.default_policy with Guard.max_retries = mj.Manifest.retries })

(* {1 Process measurements} *)

let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" Option.some
        | _ -> None)
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

(* {1 Flow workloads} *)

(* Flow step name -> layer name, in step order. *)
let step_layers =
  [ ("synthesis", "synth"); ("sizing", "flow.sizing"); ("buffering", "synth.buffering");
    ("placement", "place"); ("cts", "cts"); ("routing", "route"); ("sta", "timing.sta");
    ("power", "power"); ("drc", "drc"); ("gds", "gds") ]

let kernel_counters =
  [ "place.moves_accepted"; "place.moves_rejected"; "route.nets_ripped";
    "synth.cells_upsized" ]

type flow_run = {
  t0 : float;  (** us, monotonic *)
  t1 : float;
  outcome : Flow.run_outcome;
  rtl : Netlist.t;
  fields : (string * Jsonout.t) list;  (** traced runs only *)
}

(* One job: RTL elaboration plus [Flow.run_guarded], back to back. A
   traced job records each step's end time and minor-heap words at the
   step boundaries through the memo hook, and reads the kernels' work
   counters from a collector private to the job. *)
let run_flow_job ~traced j =
  let entry = Designs.find j.design in
  let _, cfg, _ = prepare j in
  if not traced then begin
    let t0 = Mclock.now_us () in
    let rtl = Designs.netlist entry in
    let outcome = Flow.run_guarded rtl cfg in
    { t0; t1 = Mclock.now_us (); outcome; rtl; fields = [] }
  end
  else begin
    let marks = ref [] in
    let mark step = marks := (step, Mclock.now_us (), Gc.minor_words ()) :: !marks in
    let memo = { Flow.memo_probe = (fun _ -> None); memo_save = (fun step _ -> mark step) } in
    let col = Obs.create () in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let w0 = Gc.minor_words () in
    let t0 = Mclock.now_us () in
    let rtl = Designs.netlist entry in
    mark "rtl.elab";
    let outcome = Obs.with_collector col (fun () -> Flow.run_guarded ~memo rtl cfg) in
    let t1 = Mclock.now_us () in
    let w1 = Gc.minor_words () in
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
    let marks =
      List.rev_map
        (fun (step, t, w) ->
          let layer = Option.value (List.assoc_opt step step_layers) ~default:step in
          Jsonout.List [ str layer; num t; num (w -. w0) ])
        !marks
    in
    let fields =
      [ ("marks", Jsonout.List marks); ("alloc_words", num (w1 -. w0));
        ("major_collections", int majors);
        ( "counters",
          Jsonout.Obj (List.map (fun c -> (c, int (Obs.counter_value col c))) kernel_counters)
        ) ]
    in
    { t0; t1; outcome; rtl; fields }
  end

let outcome_fields = function
  | Flow.Completed r ->
    [ ("verdict", str (Flow.verdict_to_string r.Flow.verdict));
      ("drc_violations", int (List.length r.Flow.drc.Educhip_drc.Drc.violations));
      ("ppa", Wire.ppa_to_json r.Flow.ppa) ]
  | Flow.Aborted _ as o -> [ ("verdict", str (Flow.verdict_to_string (Flow.outcome_verdict o))) ]

(* CEC of the mapped netlist against its RTL. *)
let cec_check spec rtl = function
  | Flow.Aborted _ -> ()
  | Flow.Completed r ->
    let verdict = Cec.check rtl r.Flow.mapped in
    emit "check"
      [ ("name", str ("cec " ^ spec)); ("ok", bool (verdict = Cec.Equivalent));
        ("spec", str spec); ("detail", str (Format.asprintf "%a" Cec.pp_verdict verdict)) ]

let flow_main ~jobs ~round ~warm ~seconds ~traced ~setup_only =
  Array.iter (fun j -> ignore (run_flow_job ~traced:false j)) warm;
  emit "ready" [ ("t_s", num (Mclock.now_s ())) ];
  if not setup_only then begin
    (* spec -> occurrences so far; first result kept for CEC *)
    let seen = Hashtbl.create 16 in
    let firsts = ref [] in
    let records = ref [] in
    let deadline = Mclock.now_s () +. seconds in
    let i = ref 0 in
    (* stop only between rounds, so every run weighs each spec equally *)
    while !i mod round > 0 || Mclock.now_s () < deadline do
      let j = jobs.(!i mod Array.length jobs) in
      let k = Option.value (Hashtbl.find_opt seen (spec_id j)) ~default:0 in
      Hashtbl.replace seen (spec_id j) (k + 1);
      (* a traced run traces every other occurrence of each spec, its
         first included, and leaves the rest untraced to measure the
         tracing overhead on the same specs *)
      let traced_job = traced && k mod 2 = 0 in
      let r = run_flow_job ~traced:traced_job j in
      if k = 0 then firsts := (spec_id j, r.rtl, r.outcome) :: !firsts;
      records :=
        ([ ("i", int !i); ("class", str j.cls); ("spec", str (spec_id j));
           ("traced", bool traced_job); ("t0_us", num r.t0); ("t1_us", num r.t1) ]
        @ outcome_fields r.outcome @ r.fields)
        :: !records;
      incr i
    done;
    let rss = Option.value (vm_hwm_kb "self") ~default:0 in
    List.iter (emit "job") (List.rev !records);
    emit "end" [ ("rss_kb", int rss) ];
    List.iter (fun (spec, rtl, outcome) -> cec_check spec rtl outcome) (List.rev !firsts)
  end

(* {1 serve-course} *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type daemon = { name : string; addr : string; pid : int }

type cluster = { replicas : daemon list; router : daemon }

let spawn ~dir ~name prog args =
  let log =
    Unix.openfile (Filename.concat dir (name ^ ".log")) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close null;
      Unix.close log)
    (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null log log)

(* Ready = a health request answered over a fresh connection. *)
let wait_ready addr =
  let deadline = Mclock.now_s () +. 60.0 in
  let rec poll () =
    let answered =
      match Client.connect_unix addr with
      | c ->
        let r = Client.request c Wire.Health in
        Client.close c;
        (match r with Ok (Wire.Health_report _) -> true | _ -> false)
      | exception (Unix.Unix_error _ | Sys_error _) -> false
    in
    if not answered then
      if Mclock.now_s () > deadline then failwith ("not ready in 60 s: " ^ addr)
      else begin
        Thread.delay 0.005;
        poll ()
      end
  in
  poll ()

(* SIGTERM drains each daemon; one that has not exited 20 s later is
   killed. Every child is reaped before this returns. *)
let stop_cluster c =
  let daemons = c.router :: c.replicas in
  List.iter (fun d -> try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()) daemons;
  let deadline = Mclock.now_s () +. 20.0 in
  List.iter
    (fun d ->
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ ->
          if Mclock.now_s () > deadline then begin
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] d.pid)
          end
          else begin
            Thread.delay 0.01;
            reap ()
          end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      reap ())
    daemons

(* Two single-worker replicas, each with its own result cache and
   journal, sharing one artifact directory, behind one router. Tier
   limits are far above what a closed-loop client can submit. *)
let start_cluster ~bin ~dir =
  Unix.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let replica name =
    let addr = path (name ^ ".sock") in
    let pid =
      spawn ~dir ~name (Filename.concat bin "eduserved.exe")
        [ "--socket"; addr; "--workers"; "1"; "--max-queue"; "4096";
          "--cache-dir"; path ("cache-" ^ name); "--cache-max"; "1000000";
          "--artifact-dir"; path "artifacts"; "--artifact-max"; "1000000";
          "--journal"; path (name ^ ".journal");
          "--basic-rate"; "1e9"; "--basic-burst"; "1e9"; "--basic-inflight"; "100000" ]
    in
    { name; addr; pid }
  in
  let replicas = [ replica "r1"; replica "r2" ] in
  let addr = path "router.sock" in
  let pid =
    spawn ~dir ~name:"router" (Filename.concat bin "eduroute.exe")
      ("--socket" :: addr
      :: List.concat_map (fun r -> [ "--replica"; r.name ^ "=" ^ r.addr ]) replicas)
  in
  let cluster = { replicas; router = { name = "router"; addr; pid } } in
  match List.iter (fun d -> wait_ready d.addr) (replicas @ [ cluster.router ]) with
  | () -> cluster
  | exception e ->
    stop_cluster cluster;
    raise e
type served = {
  sj : job;
  req : int;
  st0 : float;  (** us *)
  st_submit : float;
  st1 : float;
  response : (Wire.response, string) result;
}

(* Client.await's default 50 ms poll would put every executed job's
   latency on a 50 ms grid, and a class median would jump by a whole
   poll whenever host speed moves its jobs across a grid line. *)
let poll_ms = 5.0

(* serve-course splits its window over this many freshly set-up
   clusters; setup_s is the median of their set-up times. *)
let serve_setups = 3

(* Edits and cold jobs are re-run directly in process for this long,
   past it checked against their warm spec (see [check_served]). *)
let check_budget_s = 3.0

(* The traced in-process replay covers this many requests. *)
let replay_jobs = 100

(* As [eduflow submit --wait] does it: submit, then await. *)
let serve_one c req j =
  let t0 = Mclock.now_us () in
  let sub = Client.submit c (wire_spec j) in
  let t_submit = Mclock.now_us () in
  let response =
    match sub with
    | Ok (Wire.Accepted { id; _ }) -> Client.await ~poll_ms c id
    | other -> other
  in
  { sj = j; req; st0 = t0; st_submit = t_submit; st1 = Mclock.now_us (); response }

let served_fields s =
  [ ("i", int s.req); ("class", str s.sj.cls); ("spec", str (spec_id s.sj));
    ("clock_ps", match s.sj.clock_ps with Some c -> num c | None -> Jsonout.Null);
    ("fault_seed", int s.sj.fault_seed);
    ("t0_us", num s.st0); ("t_submit_us", num s.st_submit); ("t1_us", num s.st1) ]
  @
  match s.response with
  | Ok (Wire.Job_result r) ->
    [ ("verdict", str r.verdict); ("from_cache", bool r.from_cache);
      ("exec_ms", num r.exec_ms); ("wait_ms", num r.wait_ms) ]
    @ (match r.ppa with Some p -> [ ("ppa", Wire.ppa_to_json p) ] | None -> [])
  | Ok other -> [ ("verdict", str (Wire.encode_response other)) ]
  | Error e -> [ ("verdict", str ("transport: " ^ e)) ]

(* Closed loop: one connection that sends its next request only after
   the previous one's result is in hand, from request [first] on until
   [stop] says so or [jobs] runs out. Returns the results in request
   order and the first request index not yet used. *)
let closed_loop ~addr ~first ~stop jobs =
  let c = Client.connect_unix addr in
  let rec loop acc req =
    if req >= Array.length jobs || stop () then (List.rev acc, req)
    else loop (serve_one c req jobs.(req) :: acc) (req + 1)
  in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> loop [] first)

let elapsed_us f =
  let t0 = Mclock.now_us () in
  ignore (Sys.opaque_identity (f ()));
  Mclock.now_us () -. t0

let layer name unit value =
  emit "layer" [ ("name", str name); ("unit", str unit); ("value", num value) ]

(* Health round trip via the router minus the same round trip direct to
   a replica, alternating the two on persistent connections. *)
let measure_hop cluster =
  let via = Client.connect_unix cluster.router.addr in
  let direct = Client.connect_unix (List.hd cluster.replicas).addr in
  let rt c = elapsed_us (fun () -> Client.request c Wire.Health) in
  let pairs = List.init 200 (fun _ -> (rt via, rt direct)) in
  Client.close via;
  Client.close direct;
  layer "cluster.hop_ms" "ms"
    ((Stats.median (List.map fst pairs) -. Stats.median (List.map snd pairs)) /. 1e3)

(* Wire encode/decode timed on the run's own messages: every submit the
   clients sent and every result they received, each coded 20 times. *)
let measure_wire served =
  let reps = 20 in
  let per_msg f =
    elapsed_us (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
    /. float reps
  in
  let requests = List.map (fun s -> Wire.Submit (wire_spec s.sj)) served in
  let responses = List.filter_map (fun s -> Result.to_option s.response) served in
  let enc =
    List.map (fun r -> per_msg (fun () -> Wire.encode_request r)) requests
    @ List.map (fun r -> per_msg (fun () -> Wire.encode_response r)) responses
  in
  let dec =
    List.map
      (fun r ->
        let line = Wire.encode_request r in
        per_msg (fun () -> Wire.decode_request line))
      requests
    @ List.map
        (fun r ->
          let line = Wire.encode_response r in
          per_msg (fun () -> Wire.decode_response line))
        responses
  in
  layer "wire.encode_us" "us" (Stats.median enc);
  layer "wire.decode_us" "us" (Stats.median dec)

(* Sum of one Prometheus family's samples across the router's merged
   exposition (every replica's series carries a target= label). *)
let prom_sum samples family =
  List.fold_left (fun acc (name, _, _, v) -> if name = family then acc +. v else acc) 0.0 samples

let measure_metrics cluster =
  let c = Client.connect_unix cluster.router.addr in
  let text = match Client.request c Wire.Metrics with Ok (Wire.Metrics_text t) -> t | _ -> "" in
  Client.close c;
  let samples = Scrape.parse_exposition text in
  let admitted = prom_sum samples "serve_admitted" in
  layer "sched.cache_hit_ratio" "ratio"
    (if admitted > 0.0 then prom_sum samples "serve_cache_hits" /. admitted else 0.0);
  layer "serve.rejected" "count" (prom_sum samples "serve_rejected")

let ppa_key (p : Flow.ppa option) =
  match p with Some p -> Jsonout.to_string (Wire.ppa_to_json p) | None -> "none"

let served_ppa s =
  match s.response with Ok (Wire.Job_result r) -> r.ppa | _ -> None

(* A job run directly in process, the way a replica's worker runs it
   minus the result cache and the artifact store. *)
let run_direct (j : job) =
  let mj, cfg, policy = prepare j in
  let rtl = Designs.netlist (Designs.find j.design) in
  let outcome =
    Fault.with_plan ~seed:mj.Manifest.fault_seed mj.Manifest.inject (fun () ->
        Flow.run_guarded ~policy rtl cfg)
  in
  (rtl, outcome)

let outcome_ppa = function Flow.Completed r -> Some r.Flow.ppa | Flow.Aborted _ -> None

(* Every served PPA is compared bit for bit with a direct in-process run
   of its spec. Warm specs are always run directly, and CEC-checked;
   edits and cold jobs, each of them unique, are run directly in
   request order until [check_budget_s] is spent. One past the budget is still
   checked against its warm spec's direct run: a cold job's whole PPA
   (the fault seed arms nothing), an edit's clock-independent fields. *)
let check_served warm served =
  let warm_ppa = Hashtbl.create 16 in
  Array.iter
    (fun j ->
      let rtl, outcome = run_direct j in
      cec_check (spec_id j) rtl outcome;
      Hashtbl.replace warm_ppa (spec_id j) (outcome_ppa outcome))
    warm;
  let t0 = Mclock.now_s () in
  let direct_jobs = ref 0 and derived_jobs = ref 0 and failed = ref [] in
  List.iter
    (fun s ->
      let got = served_ppa s in
      let base = Option.join (Hashtbl.find_opt warm_ppa (spec_id s.sj)) in
      let same =
        match (got, base) with
        | None, _ -> true (* a failed job is counted as failed already *)
        | Some _, _ when s.sj.cls = "repeat" -> incr direct_jobs; ppa_key got = ppa_key base
        | Some _, _ when Mclock.now_s () -. t0 < check_budget_s ->
          incr direct_jobs;
          ppa_key got = ppa_key (outcome_ppa (snd (run_direct s.sj)))
        | Some g, Some b ->
          incr derived_jobs;
          if s.sj.cls = "cold" then ppa_key got = ppa_key base
          else
            g.Flow.area_um2 = b.Flow.area_um2 && g.Flow.cells = b.Flow.cells
            && g.Flow.wirelength_um = b.Flow.wirelength_um && g.Flow.drc_clean = b.Flow.drc_clean
        | Some _, None -> false
      in
      if not same then failed := s.req :: !failed)
    served;
  emit "check"
    [ ("name", str "served PPA = direct in-process run"); ("ok", bool (!failed = []));
      ("direct_jobs", int !direct_jobs); ("derived_jobs", int !derived_jobs);
      ("failed_reqs", Jsonout.List (List.rev_map int !failed)) ]

(* Bytes in the regular files of [dir] (0 before the store creates it). *)
let dir_bytes dir =
  match Sys.readdir dir with
  | names ->
    Array.fold_left
      (fun acc n ->
        match Unix.stat (Filename.concat dir n) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
        | _ -> acc)
      0 names
  | exception Sys_error _ -> 0

(* In-process replay of the start of the request sequence with a fresh
   result cache, artifact store and journal, mirroring what a replica
   does per request, so the stores and the journal are timed around
   their public calls: [Cache.lookup]/[Cache.store], [Journal.append],
   and [Artifact.memo] with its probe and save wrapped. *)
let replay ~dir ~warm ~jobs ~served =
  Unix.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let cache = Cache.create ~max_entries:1_000_000 ~dir:(path "cache") () in
  let store = Astore.create ~max_entries:1_000_000 ~dir:(path "artifacts") () in
  let journal = Journal.open_ ~path:(path "journal") in
  let served_by_req = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace served_by_req s.req (served_ppa s)) served;
  let failed = ref [] and compared = ref 0 in
  let one ~record req (j : job) =
    let mj, cfg, policy = prepare j in
    let id = Printf.sprintf "j-%06d" req in
    let spans = ref [] in
    let timed name f =
      let t0 = Mclock.now_us () in
      let r = f () in
      spans := Jsonout.List [ str name; num t0; num (Mclock.now_us ()) ] :: !spans;
      r
    in
    let step_span name step t0 =
      spans := Jsonout.List [ str name; num t0; num (Mclock.now_us ()); str step ] :: !spans
    in
    let append e = timed "journal.append" (fun () -> Journal.append journal e) in
    let t0 = Mclock.now_us () in
    let key = Server.job_key mj in
    let hit = timed "sched.cache_lookup" (fun () -> Cache.lookup cache key) in
    append (Journal.Accepted { id; spec = wire_spec j });
    let probes = ref 0 and replayed = ref 0 and bytes = ref 0 in
    let ppa, verdict =
      match hit with
      | Some e -> (e.Cache.ppa, e.Cache.verdict)
      | None ->
        append (Journal.Started { id });
        let netlist = Designs.netlist (Designs.find j.design) in
        let m =
          Artifact.memo ~store ~netlist ~cfg ~inject:mj.Manifest.inject
            ~fault_seed:mj.Manifest.fault_seed ~retries:mj.Manifest.retries
        in
        let memo =
          {
            Flow.memo_probe =
              (fun step ->
                let t0 = Mclock.now_us () in
                let r = m.Flow.memo_probe step in
                incr probes;
                if r <> None then begin
                  incr replayed;
                  step_span "artifact.decode" step t0
                end;
                r);
            memo_save =
              (fun step snap ->
                let t0 = Mclock.now_us () in
                m.Flow.memo_save step snap;
                step_span "artifact.encode" step t0);
          }
        in
        (* no collector here: with one installed every stored step would
           carry its measured wall time, and the bytes would differ from
           run to run *)
        let before = dir_bytes (Astore.dir store) in
        let outcome =
          timed "flow.run" (fun () ->
              Fault.with_plan ~seed:mj.Manifest.fault_seed mj.Manifest.inject (fun () ->
                  Flow.run_guarded ~policy ~memo netlist cfg))
        in
        bytes := dir_bytes (Astore.dir store) - before;
        let verdict = Flow.verdict_to_string (Flow.outcome_verdict outcome) in
        let ppa = outcome_ppa outcome in
        let record =
          Flow.ledger_record ~injected:[] ~fault_seed:mj.Manifest.fault_seed
            ~max_retries:mj.Manifest.retries ~design:mj.Manifest.design ~node:mj.Manifest.node
            ~preset:(Flow.preset_name mj.Manifest.preset) outcome
        in
        timed "sched.cache_store" (fun () ->
            Cache.store cache { Cache.key; verdict; ppa; record });
        (ppa, verdict)
    in
    append (Journal.Done { id; verdict });
    let t1 = Mclock.now_us () in
    if record then begin
      (match Hashtbl.find_opt served_by_req req with
      | Some served_ppa ->
        incr compared;
        if ppa_key served_ppa <> ppa_key ppa then failed := req :: !failed
      | None -> ());
      emit "replay"
        [ ("i", int req); ("class", str j.cls); ("spec", str (spec_id j));
          ("t0_us", num t0); ("t1_us", num t1); ("hit", bool (hit <> None));
          ("probes", int !probes); ("replayed_steps", int !replayed);
          ("bytes_written", int !bytes);
          ("spans", Jsonout.List (List.rev !spans)) ]
    end
  in
  Array.iteri (fun i j -> one ~record:false (-1 - i) j) warm;
  Array.iteri (fun i j -> one ~record:true i j) jobs;
  Journal.close journal;
  emit "check"
    [ ("name", str "replayed PPA = served PPA"); ("ok", bool (!failed = []));
      ("compared", int !compared); ("failed_reqs", Jsonout.List (List.rev_map int !failed)) ]

let serve_main ~jobs ~warm ~seconds ~traced ~bin ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  (* The window is split over [serve_setups] fresh clusters, so one run samples
     several independent start-ups of the daemons. Each is set up (timed:
     daemons started until they answer, warm set filled through the
     router), serves its share of the request sequence, and is stopped. *)
  let next = ref 0 and served = ref [] and rss = ref 0 in
  for k = 1 to serve_setups do
    let d = Filename.concat dir (Printf.sprintf "cluster-%d" k) in
    let t0 = Mclock.now_s () in
    let cluster = start_cluster ~bin ~dir:d in
    Fun.protect ~finally:(fun () -> stop_cluster cluster) (fun () ->
        let addr = cluster.router.addr in
        let filled, _ = closed_loop ~addr ~first:0 ~stop:(fun () -> false) warm in
        emit "setup" [ ("s", num (Mclock.now_s () -. t0)) ];
        if k = 1 then List.iter (fun s -> emit "warm" (served_fields s)) filled;
        let deadline = Mclock.now_s () +. (seconds /. float serve_setups) in
        let segment, after =
          closed_loop ~addr ~first:!next
            ~stop:(fun () -> Mclock.now_s () >= deadline)
            jobs
        in
        next := after;
        rss :=
          max !rss
            (List.fold_left
               (fun acc d -> acc + Option.value (vm_hwm_kb (string_of_int d.pid)) ~default:0)
               0 (cluster.router :: cluster.replicas));
        served := !served @ List.map (fun s -> (k, s)) segment;
        if traced && k = serve_setups then begin
          measure_hop cluster;
          measure_wire (List.map snd !served);
          measure_metrics cluster
        end);
    rm_rf d
  done;
  List.iter (fun (k, s) -> emit "job" (("segment", int k) :: served_fields s)) !served;
  emit "end" [ ("rss_kb", int !rss) ];
  let served = List.map snd !served in
  check_served warm served;
  if traced then
    replay ~dir:(Filename.concat dir "replay") ~warm
      ~jobs:(Array.sub jobs 0 (min replay_jobs (Array.length jobs)))
      ~served;
  rm_rf dir

(* {1 Command line} *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with Some v -> v | None -> failwith ("missing " ^ name)
  in
  let traced = opt "--trace" args = Some "1" in
  let seconds = float_of_string (req "--seconds") in
  match args with
  | _ :: "flow" :: _ ->
    flow_main ~jobs:(read_jobs (req "--jobs")) ~round:(int_of_string (req "--round"))
      ~warm:(read_jobs (req "--warm")) ~seconds
      ~traced
      ~setup_only:(List.mem "--setup-only" args)
  | _ :: "serve" :: _ ->
    serve_main ~jobs:(read_jobs (req "--jobs")) ~warm:(read_jobs (req "--warm")) ~seconds
      ~traced ~bin:(req "--bin") ~dir:(req "--dir")
  | _ ->
    prerr_endline "usage: harness.exe (flow|serve) ...";
    exit 2
