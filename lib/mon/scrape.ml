module Client = Educhip_serve.Client
module Wire = Educhip_serve.Wire
module Slo = Educhip_obs.Slo
module Mclock = Educhip_util.Mclock

type target = { target_name : string; addr : string }

let target_of_spec spec =
  let name, addr =
    match String.index_opt spec '=' with
    | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | None -> (spec, spec)
  in
  if name = "" || addr = "" then
    invalid_arg (Printf.sprintf "Scrape.target_of_spec: bad target spec %S" spec);
  { target_name = name; addr }

type t = {
  tsdb : Tsdb.t;
  targets : target list;
  connect_timeout_ms : float;
  read_timeout_ms : float;
  last_ok : (string, float) Hashtbl.t;
  reports : (string, Wire.response * Wire.response) Hashtbl.t;
      (* the last successful scrape's Health_report and Stats_report *)
  conns : (string, Client.t) Hashtbl.t;
      (* persistent per-target connections: reconnecting every tick
         made each scrape cost the daemon a connection-thread spawn and
         teardown, a tax the overhead gate could see. A connection that
         fails in any way is dropped and reopened on the next tick. *)
}

let create ?(connect_timeout_ms = 1000.0) ?(read_timeout_ms = 5000.0) targets =
  if targets = [] then invalid_arg "Scrape.create: no targets";
  List.iteri
    (fun i tgt ->
      List.iteri
        (fun j other ->
          if i < j && tgt.target_name = other.target_name then
            invalid_arg
              (Printf.sprintf "Scrape.create: duplicate target name %S" tgt.target_name))
        targets)
    targets;
  {
    tsdb = Tsdb.create ();
    targets;
    connect_timeout_ms;
    read_timeout_ms;
    last_ok = Hashtbl.create 8;
    reports = Hashtbl.create 8;
    conns = Hashtbl.create 8;
  }

let tsdb t = t.tsdb
let targets t = t.targets

let drop_conn t name =
  match Hashtbl.find_opt t.conns name with
  | Some c ->
    Hashtbl.remove t.conns name;
    (try Client.close c with _ -> ())
  | None -> ()

let close t = List.iter (fun tgt -> drop_conn t tgt.target_name) t.targets
let last_ok_ms t name = Hashtbl.find_opt t.last_ok name
let last_reports t name = Hashtbl.find_opt t.reports name
let staleness_ms t ~now_ms name = Option.map (fun ok -> now_ms -. ok) (last_ok_ms t name)

let up t ~now_ms ~staleness_window_ms name =
  match staleness_ms t ~now_ms name with
  | Some age -> age <= staleness_window_ms
  | None -> false

(* {1 Prometheus text-format parsing} *)

(* [a-zA-Z0-9_:] plus '.' (our own names pre-sanitization) *)
let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':' || c = '.'

(* "name{k=\"v\",...} value" or "name value"; [None] on any lexical
   trouble — one bad line must never kill a scrape *)
let parse_sample_line line =
  let n = String.length line in
  let rec skip_ws i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip_ws (i + 1) else i in
  let rec name_end i = if i < n && is_name_char line.[i] then name_end (i + 1) else i in
  let start = skip_ws 0 in
  let nend = name_end start in
  if nend = start then None
  else begin
    let name = String.sub line start (nend - start) in
    (* optional {labels} *)
    let labels = ref [] in
    let rec parse_labels i =
      (* at a label key, '}' for an empty/trailing set, or failure *)
      let i = skip_ws i in
      if i < n && line.[i] = '}' then Some (i + 1)
      else begin
        let kend = name_end i in
        if kend = i || kend >= n || line.[kend] <> '=' || kend + 1 >= n
           || line.[kend + 1] <> '"'
        then None
        else begin
          let key = String.sub line i (kend - i) in
          let buf = Buffer.create 16 in
          let rec value j =
            if j >= n then None
            else
              match line.[j] with
              | '"' -> Some (j + 1)
              | '\\' when j + 1 < n ->
                let c = line.[j + 1] in
                Buffer.add_char buf
                  (match c with 'n' -> '\n' | '"' -> '"' | '\\' -> '\\' | c -> c);
                value (j + 2)
              | c ->
                Buffer.add_char buf c;
                value (j + 1)
          in
          match value (kend + 2) with
          | None -> None
          | Some j ->
            labels := (key, Buffer.contents buf) :: !labels;
            let j = skip_ws j in
            if j < n && line.[j] = ',' then parse_labels (j + 1)
            else if j < n && line.[j] = '}' then Some (j + 1)
            else None
        end
      end
    in
    let after_labels =
      if nend < n && line.[nend] = '{' then parse_labels (nend + 1) else Some nend
    in
    match after_labels with
    | None -> None
    | Some i ->
      let i = skip_ws i in
      let vend = ref i in
      while !vend < n && line.[!vend] <> ' ' && line.[!vend] <> '\t' do incr vend done;
      if !vend = i then None
      else
        (* a trailing timestamp, if present, is ignored *)
        Option.map
          (fun v -> (name, List.rev !labels, v))
          (float_of_string_opt (String.sub line i (!vend - i)))
  end

let parse_exposition text =
  let types = Hashtbl.create 16 in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else if String.length line > 0 && line.[0] = '#' then begin
           let toks =
             String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
           in
           (match toks with
           | [ "#"; "TYPE"; name; kind ] -> (
             match Tsdb.kind_of_name kind with
             | Some k -> Hashtbl.replace types name k
             | None -> ())
           | _ -> ());
           None
         end
         else
           match parse_sample_line line with
           | None -> None
           | Some (name, labels, v) when Float.is_finite v ->
             (* summary children (_sum/_count) inherit the family's type
                lexically only when named identically; default gauge *)
             let kind =
               match Hashtbl.find_opt types name with
               | Some k -> k
               | None ->
                 if List.mem_assoc "quantile" labels then Tsdb.Summary
                 else if String.ends_with ~suffix:"_count" name
                         || String.ends_with ~suffix:"_sum" name
                 then Tsdb.Counter
                 else Tsdb.Gauge
             in
             Some (name, labels, kind, v)
           | Some _ -> None)

(* A scraped series may itself carry a [target] label — a router's
   merged exposition does, one per replica. Stacking the poller's own
   tag in front would shadow the original ([Tsdb] keys series by the
   full label set, but readers take the first match), so the incoming
   label is preserved under [instance] — or [exported_target] if the
   series already spends [instance] — before the poller's [target] is
   prepended. *)
let relabel ~target labels =
  let renamed =
    List.map
      (fun (k, v) ->
        if k = "target" then
          ((if List.mem_assoc "instance" labels then "exported_target" else "instance"), v)
        else (k, v))
      labels
  in
  ("target", target) :: renamed

(* {1 Ticking} *)

type tick_result = { target : string; ok : bool; error : string option; samples : int }

let scrape_target t tgt ~now_ms ~count =
  let rec_ ?(labels = []) ~kind name v =
    let labels = relabel ~target:tgt.target_name labels in
    if Tsdb.record t.tsdb ~labels ~kind ~t_ms:now_ms name v then incr count
  in
  let conn =
    match Hashtbl.find_opt t.conns tgt.target_name with
    | Some c -> c
    | None ->
      let c =
        Client.connect ~connect_timeout_ms:t.connect_timeout_ms
          ~read_timeout_ms:t.read_timeout_ms tgt.addr
      in
      Hashtbl.replace t.conns tgt.target_name c;
      c
  in
  let health =
    match Client.request conn Wire.Health with
    | Ok (Wire.Health_report h as r) ->
      rec_ ~kind:Tsdb.Gauge "health.queue_depth" (float_of_int h.queue_depth);
      rec_ ~kind:Tsdb.Gauge "health.running" (float_of_int h.running);
      rec_ ~kind:Tsdb.Gauge "health.workers" (float_of_int h.workers);
      rec_ ~kind:Tsdb.Gauge "health.uptime_ms" h.uptime_ms;
      rec_ ~kind:Tsdb.Counter "health.completed" (float_of_int h.completed);
      rec_ ~kind:Tsdb.Counter "health.failed" (float_of_int h.failed);
      rec_ ~kind:Tsdb.Gauge "health.draining" (if h.draining then 1.0 else 0.0);
      Ok r
    | Ok r -> Error ("health: unexpected " ^ Wire.encode_response r)
    | Error e -> Error ("health: " ^ e)
  in
  let stats =
    match Client.request conn Wire.Stats with
    | Ok (Wire.Stats_report s as r) ->
      List.iter
        (fun (reason, n) ->
          rec_ ~labels:[ ("reason", reason) ] ~kind:Tsdb.Counter "stats.rejects"
            (float_of_int n))
        s.rejects;
      List.iter
        (fun (ts : Wire.tenant_stats) ->
          let labels = [ ("tenant", ts.tenant) ] in
          rec_ ~labels ~kind:Tsdb.Gauge "stats.tenant_inflight"
            (float_of_int ts.inflight);
          rec_ ~labels ~kind:Tsdb.Counter "stats.tenant_completed"
            (float_of_int ts.completed_n);
          rec_ ~labels ~kind:Tsdb.Counter "stats.tenant_failed"
            (float_of_int ts.failed_n);
          rec_ ~labels ~kind:Tsdb.Gauge "stats.tenant_p50_ms" ts.p50_ms;
          rec_ ~labels ~kind:Tsdb.Gauge "stats.tenant_p99_ms" ts.p99_ms)
        s.tenants;
      List.iter
        (fun (r : Slo.report) ->
          let labels = [ ("tier", r.tier) ] in
          rec_ ~labels ~kind:Tsdb.Gauge "slo.burn_rate" r.burn_rate;
          rec_ ~labels ~kind:Tsdb.Gauge "slo.p99_ms" r.p99_ms;
          rec_ ~labels ~kind:Tsdb.Gauge "slo.ok_rate" r.ok_rate;
          rec_ ~labels ~kind:Tsdb.Gauge "slo.latency_budget" r.latency_budget;
          rec_ ~labels ~kind:Tsdb.Gauge "slo.success_budget" r.success_budget;
          rec_ ~labels ~kind:Tsdb.Gauge "slo.samples" (float_of_int r.samples))
        s.slos;
      Ok r
    | Ok r -> Error ("stats: unexpected " ^ Wire.encode_response r)
    | Error e -> Error ("stats: " ^ e)
  in
  let metrics =
    match Client.request conn Wire.Metrics with
    | Ok (Wire.Metrics_text text) ->
      List.iter
        (fun (name, labels, kind, v) -> rec_ ~labels ~kind name v)
        (parse_exposition text);
      Ok ()
    | Ok r -> Error ("metrics: unexpected " ^ Wire.encode_response r)
    | Error e -> Error ("metrics: " ^ e)
  in
  match (health, stats, metrics) with
  | Ok h, Ok s, Ok () -> Ok (h, s)
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

let tick t ~now_ms =
  List.map
    (fun tgt ->
      let count = ref 0 in
      let t0 = Mclock.now_ms () in
      let outcome =
        try scrape_target t tgt ~now_ms ~count with
        | Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "connect: %s (%s)" (Unix.error_message e) fn)
        | Failure msg | Invalid_argument msg -> Error msg
      in
      let up_labels = [ ("target", tgt.target_name) ] in
      (match outcome with
      | Ok reports ->
        Hashtbl.replace t.last_ok tgt.target_name now_ms;
        Hashtbl.replace t.reports tgt.target_name reports;
        ignore
          (Tsdb.record t.tsdb ~labels:up_labels ~kind:Tsdb.Gauge ~t_ms:now_ms "scrape.up" 1.0);
        ignore
          (Tsdb.record t.tsdb ~labels:up_labels ~kind:Tsdb.Gauge ~t_ms:now_ms
             "scrape.duration_ms" (Mclock.now_ms () -. t0))
      | Error _ ->
        (* any failure poisons the connection (it may be desynced
           mid-response); reopen fresh on the next tick *)
        drop_conn t tgt.target_name;
        ignore
          (Tsdb.record t.tsdb ~labels:up_labels ~kind:Tsdb.Gauge ~t_ms:now_ms "scrape.up" 0.0));
      {
        target = tgt.target_name;
        ok = Result.is_ok outcome;
        error = (match outcome with Ok _ -> None | Error e -> Some e);
        samples = !count;
      })
    t.targets

let step ?alert_log t rules ~now_ms ~tick:n =
  let results = tick t ~now_ms in
  let entries = Rules.eval rules t.tsdb ~now_ms ~tick:n in
  Option.iter (fun path -> List.iter (Alertlog.append ~path) entries) alert_log;
  (results, entries)
