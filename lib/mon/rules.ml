type fn = Value | Rate | Delta | Avg | Max | Min | Quantile of float
type op = Gt | Lt | Ge | Le

let fn_name = function
  | Value -> "value"
  | Rate -> "rate"
  | Delta -> "delta"
  | Avg -> "avg"
  | Max -> "max"
  | Min -> "min"
  | Quantile q -> Printf.sprintf "p%g" (q *. 100.0)

let op_name = function Gt -> ">" | Lt -> "<" | Ge -> ">=" | Le -> "<="

type rule = {
  rule_name : string;
  metric : string;
  selector : (string * string) list;
  fn : fn;
  window_ms : float;
  op : op;
  threshold : float;
  for_ms : float;
  resolve_ms : float;
  severity : string;
  slo_burn : bool;
}

(* {1 Parsing} — the [Sched.Manifest] line-based style *)

let tokens line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let key_value tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 ->
    Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | _ -> None

let fn_of_string = function
  | "value" -> Some Value
  | "rate" -> Some Rate
  | "delta" -> Some Delta
  | "avg" -> Some Avg
  | "max" -> Some Max
  | "min" -> Some Min
  | "p50" -> Some (Quantile 0.5)
  | "p90" -> Some (Quantile 0.9)
  | "p95" -> Some (Quantile 0.95)
  | "p99" -> Some (Quantile 0.99)
  | _ -> None

let op_of_string = function
  | ">" -> Some Gt
  | "<" -> Some Lt
  | ">=" -> Some Ge
  | "<=" -> Some Le
  | _ -> None

(* "250ms" | "2s" | "1m" | bare milliseconds *)
let duration_ms v =
  let suffixed suffix scale =
    let n = String.length v - String.length suffix in
    if n > 0 && String.ends_with ~suffix v then
      Option.map (fun f -> f *. scale) (float_of_string_opt (String.sub v 0 n))
    else None
  in
  let first_some l = List.find_map (fun f -> f ()) l in
  first_some
    [
      (fun () -> suffixed "ms" 1.0);
      (fun () -> suffixed "s" 1000.0);
      (fun () -> suffixed "m" 60_000.0);
      (fun () -> float_of_string_opt v);
    ]
  |> Option.map (fun ms -> if ms < 0.0 then None else Some ms)
  |> Option.join

(* "name" or "name{k=v,k2=v2}" *)
let parse_metric v =
  match String.index_opt v '{' with
  | None -> if v = "" then None else Some (v, [])
  | Some i ->
    if i = 0 || not (String.ends_with ~suffix:"}" v) then None
    else begin
      let name = String.sub v 0 i in
      let body = String.sub v (i + 1) (String.length v - i - 2) in
      let kvs =
        if body = "" then Some []
        else
          String.split_on_char ',' body
          |> List.map key_value
          |> List.fold_left
               (fun acc kv ->
                 match (acc, kv) with
                 | Some acc, Some ((k, _) as kv) when k <> "" -> Some (kv :: acc)
                 | _ -> None)
               (Some [])
      in
      Option.map (fun kvs -> (name, List.sort compare kvs)) kvs
    end

let parse_string ?(source = "<rules>") text =
  let fail line fmt =
    Printf.ksprintf (fun msg -> invalid_arg (Printf.sprintf "%s:%d: %s" source line msg)) fmt
  in
  let rules = ref [] in
  let check_fresh lineno name =
    if List.exists (fun r -> r.rule_name = name) !rules then
      fail lineno "rule %s declared twice" name
  in
  let float_field lineno key v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> f
    | _ -> fail lineno "%s must be a number, got %S" key v
  in
  let duration_field lineno key v =
    match duration_ms v with
    | Some ms -> ms
    | None -> fail lineno "%s must be a duration (250ms, 2s, 1m), got %S" key v
  in
  (* "alert NAME metric=... fn=... window=... op=... value=... [for=] [resolve=] [severity=]" *)
  let parse_alert lineno name rest =
    check_fresh lineno name;
    let metric = ref None in
    let fn = ref Value in
    let window = ref None in
    let op = ref None in
    let threshold = ref None in
    let for_ms = ref 0.0 in
    let resolve_ms = ref 0.0 in
    let severity = ref "warn" in
    List.iter
      (fun tok ->
        match key_value tok with
        | Some ("metric", v) -> (
          match parse_metric v with
          | Some m -> metric := Some m
          | None -> fail lineno "alert %s: bad metric selector %S" name v)
        | Some ("fn", v) -> (
          match fn_of_string v with
          | Some f -> fn := f
          | None -> fail lineno "alert %s: unknown fn %S" name v)
        | Some ("window", v) -> window := Some (duration_field lineno "window" v)
        | Some ("op", v) -> (
          match op_of_string v with
          | Some o -> op := Some o
          | None -> fail lineno "alert %s: op must be one of > < >= <=, got %S" name v)
        | Some ("value", v) -> threshold := Some (float_field lineno "value" v)
        | Some ("for", v) -> for_ms := duration_field lineno "for" v
        | Some ("resolve", v) -> resolve_ms := duration_field lineno "resolve" v
        | Some ("severity", v) -> severity := v
        | Some (k, _) -> fail lineno "alert %s: unknown key %s" name k
        | None -> fail lineno "alert %s: expected key=value, got %S" name tok)
      rest;
    let metric, selector =
      match !metric with
      | Some m -> m
      | None -> fail lineno "alert %s: metric= is required" name
    in
    let op =
      match !op with Some o -> o | None -> fail lineno "alert %s: op= is required" name
    in
    let threshold =
      match !threshold with
      | Some v -> v
      | None -> fail lineno "alert %s: value= is required" name
    in
    let window_ms =
      match (!fn, !window) with
      | Value, w -> Option.value w ~default:0.0
      | _, Some w when w > 0.0 -> w
      | f, _ -> fail lineno "alert %s: fn=%s needs window=<duration>" name (fn_name f)
    in
    rules :=
      {
        rule_name = name;
        metric;
        selector;
        fn = !fn;
        window_ms;
        op;
        threshold;
        for_ms = !for_ms;
        resolve_ms = !resolve_ms;
        severity = !severity;
        slo_burn = false;
      }
      :: !rules
  in
  (* "slo-burn NAME tier=... threshold=... [target=] [for=] [resolve=] [severity=]"
     — sugar over the slo.burn_rate gauge the scraper records from the
     daemon's Stats_report *)
  let parse_slo_burn lineno name rest =
    check_fresh lineno name;
    let tier = ref None in
    let threshold = ref None in
    let target = ref None in
    let for_ms = ref 0.0 in
    let resolve_ms = ref 0.0 in
    let severity = ref "page" in
    List.iter
      (fun tok ->
        match key_value tok with
        | Some ("tier", v) -> tier := Some v
        | Some ("threshold", v) -> threshold := Some (float_field lineno "threshold" v)
        | Some ("target", v) -> target := Some v
        | Some ("for", v) -> for_ms := duration_field lineno "for" v
        | Some ("resolve", v) -> resolve_ms := duration_field lineno "resolve" v
        | Some ("severity", v) -> severity := v
        | Some (k, _) -> fail lineno "slo-burn %s: unknown key %s" name k
        | None -> fail lineno "slo-burn %s: expected key=value, got %S" name tok)
      rest;
    let tier =
      match !tier with
      | Some t -> t
      | None -> fail lineno "slo-burn %s: tier= is required" name
    in
    let threshold =
      match !threshold with
      | Some v -> v
      | None -> fail lineno "slo-burn %s: threshold= is required" name
    in
    let selector =
      ("tier", tier) :: (match !target with Some t -> [ ("target", t) ] | None -> [])
    in
    rules :=
      {
        rule_name = name;
        metric = "slo.burn_rate";
        selector = List.sort compare selector;
        fn = Value;
        window_ms = 0.0;
        op = Ge;
        threshold;
        for_ms = !for_ms;
        resolve_ms = !resolve_ms;
        severity = !severity;
        slo_burn = true;
      }
      :: !rules
  in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let lineno = i + 1 in
         match tokens (strip_comment line) with
         | [] -> ()
         | "alert" :: name :: rest -> parse_alert lineno name rest
         | [ "alert" ] -> fail lineno "alert directive needs a name"
         | "slo-burn" :: name :: rest -> parse_slo_burn lineno name rest
         | [ "slo-burn" ] -> fail lineno "slo-burn directive needs a name"
         | directive :: _ -> fail lineno "unknown directive %S" directive);
  List.rev !rules

let load ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  parse_string ~source:path text

(* {1 The state machine} *)

type istate =
  | Inactive
  | Pending of { since : float }
  | Firing of { since : float; ok_since : float option }

type inst = {
  i_rule : rule;
  i_labels : (string * string) list;
  mutable st : istate;
  mutable last_value : float;
}

type t = { rule_list : rule list; insts : (string * (string * string) list, inst) Hashtbl.t;
           mutable inst_order : inst list (* newest first *) }

let create rule_list = { rule_list; insts = Hashtbl.create 16; inst_order = [] }
let rules t = t.rule_list

let evaluate_fn rule series ~now_ms =
  let window_ms = rule.window_ms in
  match rule.fn with
  | Value -> Tsdb.value_at series ~t_ms:now_ms
  | Rate -> Tsdb.rate series ~window_ms ~now_ms
  | Delta -> Tsdb.delta series ~window_ms ~now_ms
  | Avg -> Tsdb.avg series ~window_ms ~now_ms
  | Max -> Tsdb.max_ series ~window_ms ~now_ms
  | Min -> Tsdb.min_ series ~window_ms ~now_ms
  | Quantile q -> Tsdb.quantile series ~q ~window_ms ~now_ms

let holds op threshold v =
  match op with
  | Gt -> v > threshold
  | Lt -> v < threshold
  | Ge -> v >= threshold
  | Le -> v <= threshold

let get_inst t rule labels =
  let key = (rule.rule_name, labels) in
  match Hashtbl.find_opt t.insts key with
  | Some i -> i
  | None ->
    let i = { i_rule = rule; i_labels = labels; st = Inactive; last_value = 0.0 } in
    Hashtbl.replace t.insts key i;
    t.inst_order <- i :: t.inst_order;
    i

(* advance one instance; returns the transitions it emitted this tick *)
let step inst ~cond ~value ~now_ms ~tick =
  let rule = inst.i_rule in
  inst.last_value <- value;
  let entry state =
    Alertlog.make ~t_ms:now_ms ~tick ~rule:rule.rule_name ~labels:inst.i_labels ~state
      ~value ~threshold:rule.threshold ~severity:rule.severity ()
  in
  let fire () =
    inst.st <- Firing { since = now_ms; ok_since = None };
    [ entry Alertlog.Firing ]
  in
  match (inst.st, cond) with
  | Inactive, false -> []
  | Inactive, true ->
    inst.st <- Pending { since = now_ms };
    let pending = entry Alertlog.Pending in
    (* a zero [for] promotes in the same tick *)
    if rule.for_ms <= 0.0 then pending :: fire () else [ pending ]
  | Pending { since }, true ->
    if now_ms -. since >= rule.for_ms then fire () else []
  | Pending _, false ->
    (* never fired: cancel silently — no page, no resolve line *)
    inst.st <- Inactive;
    []
  | Firing { since; ok_since = _ }, true ->
    inst.st <- Firing { since; ok_since = None };
    []
  | Firing { since; ok_since }, false ->
    let ok_since = match ok_since with Some t -> t | None -> now_ms in
    if now_ms -. ok_since >= rule.resolve_ms then begin
      inst.st <- Inactive;
      [ entry Alertlog.Resolved ]
    end
    else begin
      inst.st <- Firing { since; ok_since = Some ok_since };
      []
    end

let eval t tsdb ~now_ms ~tick =
  List.concat_map
    (fun rule ->
      let matched = Tsdb.select tsdb ~where:rule.selector rule.metric in
      (* series the selector matches now *)
      let live =
        List.map
          (fun s ->
            let labels = Tsdb.series_labels s in
            let value = evaluate_fn rule s ~now_ms in
            (get_inst t rule labels, value))
          matched
      in
      (* instances created on earlier ticks whose series no longer
         match (e.g. the store was rebuilt): condition-false *)
      let live_keys = List.map (fun (i, _) -> i.i_labels) live in
      let stale =
        List.filter
          (fun i -> i.i_rule.rule_name = rule.rule_name && not (List.mem i.i_labels live_keys))
          (List.rev t.inst_order)
        |> List.map (fun i -> (i, None))
      in
      List.concat_map
        (fun (inst, value) ->
          let cond = match value with Some v -> holds rule.op rule.threshold v | None -> false in
          step inst ~cond ~value:(Option.value value ~default:0.0) ~now_ms ~tick)
        (live @ stale))
    t.rule_list

type instance = {
  inst_rule : rule;
  inst_labels : (string * string) list;
  inst_state : Alertlog.state;
  since_ms : float;
  last_value : float;
}

let active t =
  List.filter_map
    (fun i ->
      match i.st with
      | Inactive -> None
      | Pending { since } ->
        Some
          {
            inst_rule = i.i_rule;
            inst_labels = i.i_labels;
            inst_state = Alertlog.Pending;
            since_ms = since;
            last_value = i.last_value;
          }
      | Firing { since; _ } ->
        Some
          {
            inst_rule = i.i_rule;
            inst_labels = i.i_labels;
            inst_state = Alertlog.Firing;
            since_ms = since;
            last_value = i.last_value;
          })
    (List.rev t.inst_order)
