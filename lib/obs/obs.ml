module Stats = Educhip_util.Stats
module Mclock = Educhip_util.Mclock

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  name : string;
  start_us : float;
  mutable stop_us : float; (* nan until the span closes *)
  mutable attrs : (string * value) list; (* newest first *)
  mutable children : span list; (* newest first *)
}

type metric_key = { metric_name : string; labels : (string * string) list }

(* Histograms keep exact lifetime totals (count, sum) but only a
   bounded ring of recent observations for the distribution statistics.
   An unbounded sample list made every exposition O(total observations
   ever): a long-lived daemon scraped once a second re-sorted its whole
   history per scrape, and each scrape stalled the serve path a little
   longer than the last. The window bounds that cost while the totals
   stay monotonic, which is what rate/delta consumers need. *)
let histogram_window = 1024

type hist = {
  mutable h_count : int; (* lifetime observations, never truncated *)
  mutable h_sum : float; (* lifetime sum, never truncated *)
  h_ring : float array; (* newest [histogram_window] observations *)
  mutable h_head : int; (* next write slot *)
  mutable h_len : int;
}

let hist_create () =
  { h_count = 0; h_sum = 0.0; h_ring = Array.make histogram_window 0.0; h_head = 0; h_len = 0 }

let hist_add h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_ring.(h.h_head) <- v;
  h.h_head <- (h.h_head + 1) mod histogram_window;
  if h.h_len < histogram_window then h.h_len <- h.h_len + 1

(* retained window in observation order (oldest first) *)
let hist_samples h =
  List.init h.h_len (fun i ->
      h.h_ring.((h.h_head - h.h_len + i + histogram_window) mod histogram_window))

type collector = {
  epoch : float;
  mutable roots : span list; (* newest first *)
  mutable stack : span list; (* innermost first *)
  counters : (metric_key, int ref) Hashtbl.t;
  gauges : (metric_key, float ref) Hashtbl.t;
  histograms : (metric_key, hist) Hashtbl.t;
}

let create () =
  {
    epoch = Mclock.now_s ();
    roots = [];
    stack = [];
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

(* The installed sink, one slot per domain: every probe below checks it
   first, so with no collector the cost is one DLS load and a branch.
   Domain-local (rather than a plain ref) so parallel scheduler workers
   each trace into their own collector without synchronization — a
   freshly spawned domain starts with no collector installed. *)
let current : collector option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_current () = Domain.DLS.get current
let set_current v = Domain.DLS.set current v

let install c = set_current (Some c)
let uninstall () = set_current None
let enabled () = get_current () <> None
let installed () = get_current ()

let with_collector c f =
  let previous = get_current () in
  set_current (Some c);
  Fun.protect ~finally:(fun () -> set_current previous) f

(* {1 Spans} *)

let now_us c = (Mclock.now_s () -. c.epoch) *. 1e6

let timed ?(attrs = []) name f =
  match get_current () with
  | None -> (f (), None)
  | Some c ->
    let span =
      { name; start_us = now_us c; stop_us = Float.nan; attrs = List.rev attrs; children = [] }
    in
    (match c.stack with
    | parent :: _ -> parent.children <- span :: parent.children
    | [] -> c.roots <- span :: c.roots);
    c.stack <- span :: c.stack;
    let v =
      Fun.protect
        ~finally:(fun () ->
          span.stop_us <- now_us c;
          match c.stack with
          | top :: rest when top == span -> c.stack <- rest
          | _ ->
            (* a child escaped without closing (exception path already
               handled by its own protect); drop down to this span *)
            let rec unwind = function
              | top :: rest when top == span -> rest
              | _ :: rest -> unwind rest
              | [] -> []
            in
            c.stack <- unwind c.stack)
        f
    in
    (v, Some ((span.stop_us -. span.start_us) /. 1000.0))

let with_span ?attrs name f = fst (timed ?attrs name f)

let set_attr key v =
  match get_current () with
  | None -> ()
  | Some c -> (
    match c.stack with
    | [] -> ()
    | span :: _ -> span.attrs <- (key, v) :: span.attrs)

let root_spans c = List.rev c.roots
let span_name s = s.name
let span_children s = List.rev s.children
let epoch_s c = c.epoch
let span_start_us s = s.start_us
let span_stop_us s = s.stop_us

let span_duration_ms s =
  if Float.is_nan s.stop_us then 0.0 else (s.stop_us -. s.start_us) /. 1000.0

(* first-set order, later writes to the same key winning *)
let span_attrs s =
  let latest = Hashtbl.create 8 in
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem latest k) then Hashtbl.replace latest k v)
    s.attrs;
  let emitted = Hashtbl.create 8 in
  List.fold_left
    (fun acc (k, _) ->
      if Hashtbl.mem emitted k then acc
      else begin
        Hashtbl.replace emitted k ();
        (k, Hashtbl.find latest k) :: acc
      end)
    [] s.attrs

(* {1 Metrics} *)

let key name labels = { metric_name = name; labels = List.sort compare labels }

let add_counter ?(labels = []) name n =
  match get_current () with
  | None -> ()
  | Some c -> (
    let k = key name labels in
    match Hashtbl.find_opt c.counters k with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace c.counters k (ref n))

let incr_counter ?labels name = add_counter ?labels name 1
let declare_counter ?labels name = add_counter ?labels name 0

let set_gauge ?(labels = []) name v =
  match get_current () with
  | None -> ()
  | Some c -> (
    let k = key name labels in
    match Hashtbl.find_opt c.gauges k with
    | Some r -> r := v
    | None -> Hashtbl.replace c.gauges k (ref v))

let declare_gauge ?(labels = []) name =
  match get_current () with
  | None -> ()
  | Some c ->
    let k = key name labels in
    if not (Hashtbl.mem c.gauges k) then Hashtbl.replace c.gauges k (ref 0.0)

let observe ?(labels = []) name v =
  match get_current () with
  | None -> ()
  | Some c -> (
    let k = key name labels in
    match Hashtbl.find_opt c.histograms k with
    | Some h -> hist_add h v
    | None ->
      let h = hist_create () in
      hist_add h v;
      Hashtbl.replace c.histograms k h)

let counter_value c ?(labels = []) name =
  match Hashtbl.find_opt c.counters (key name labels) with Some r -> !r | None -> 0

let gauge_value c ?(labels = []) name =
  Option.map ( ! ) (Hashtbl.find_opt c.gauges (key name labels))

let histogram_samples c ?(labels = []) name =
  match Hashtbl.find_opt c.histograms (key name labels) with
  | Some h -> hist_samples h
  | None -> []

(* Registry-only deep copy (spans are not carried over). Cheap — ints,
   floats, and bounded rings — so a server can take it while holding
   its write lock and run the expensive part (sorting, rendering) on
   the copy after releasing the lock. *)
let registry_copy c =
  let c' =
    {
      epoch = c.epoch;
      roots = [];
      stack = [];
      counters = Hashtbl.create (Hashtbl.length c.counters);
      gauges = Hashtbl.create (Hashtbl.length c.gauges);
      histograms = Hashtbl.create (Hashtbl.length c.histograms);
    }
  in
  Hashtbl.iter (fun k r -> Hashtbl.replace c'.counters k (ref !r)) c.counters;
  Hashtbl.iter (fun k r -> Hashtbl.replace c'.gauges k (ref !r)) c.gauges;
  Hashtbl.iter
    (fun k h -> Hashtbl.replace c'.histograms k { h with h_ring = Array.copy h.h_ring })
    c.histograms;
  c'

(* {1 Merging}

   Fold a worker collector into a campaign-level one: counters add,
   gauges last-write-wins (the source is the newer state), histogram
   samples append, and completed root spans transfer re-based onto the
   destination's epoch — both epochs come from the same monotonic clock,
   so the offset is exact and the merged trace keeps real timing. *)

let merge ~into:dst src =
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt dst.counters k with
      | Some d -> d := !d + !r
      | None -> Hashtbl.replace dst.counters k (ref !r))
    src.counters;
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt dst.gauges k with
      | Some d -> d := !r
      | None -> Hashtbl.replace dst.gauges k (ref !r))
    src.gauges;
  Hashtbl.iter
    (fun k src_h ->
      let dst_h =
        match Hashtbl.find_opt dst.histograms k with
        | Some d -> d
        | None ->
          let d = hist_create () in
          Hashtbl.replace dst.histograms k d;
          d
      in
      (* src samples are newer: appending them keeps window order, and
         the lifetime totals transfer exactly even past the window *)
      List.iter (fun v -> hist_add dst_h v) (hist_samples src_h);
      dst_h.h_count <- dst_h.h_count + (src_h.h_count - src_h.h_len);
      dst_h.h_sum <-
        dst_h.h_sum
        +. (src_h.h_sum -. List.fold_left ( +. ) 0.0 (hist_samples src_h)))
    src.histograms;
  let offset_us = (src.epoch -. dst.epoch) *. 1e6 in
  let rec rebase span =
    {
      span with
      start_us = span.start_us +. offset_us;
      stop_us = span.stop_us +. offset_us;
      children = List.map rebase span.children;
    }
  in
  dst.roots <- List.map rebase src.roots @ dst.roots

(* {1 Export} *)

let value_json = function
  | Bool b -> Jsonout.Bool b
  | Int i -> Jsonout.Int i
  | Float f -> Jsonout.Float f
  | Str s -> Jsonout.String s

(* trace-event category: the span name's dot-prefix groups kernels
   ("place", "route", ...) under one color in the viewer *)
let category name =
  match String.index_opt name '.' with
  | Some i when i > 0 -> String.sub name 0 i
  | Some _ | None -> "flow"

let trace_json c =
  let events = ref [] in
  let rec emit span =
    let dur = if Float.is_nan span.stop_us then 0.0 else span.stop_us -. span.start_us in
    events :=
      Jsonout.Obj
        [
          ("name", Jsonout.String span.name);
          ("cat", Jsonout.String (category span.name));
          ("ph", Jsonout.String "X");
          ("ts", Jsonout.Float span.start_us);
          ("dur", Jsonout.Float dur);
          ("pid", Jsonout.Int 1);
          ("tid", Jsonout.Int 1);
          ("args", Jsonout.Obj (List.map (fun (k, v) -> (k, value_json v)) (span_attrs span)));
        ]
      :: !events;
    List.iter emit (span_children span)
  in
  List.iter emit (root_spans c);
  Jsonout.Obj
    [
      ("traceEvents", Jsonout.List (List.rev !events));
      ("displayTimeUnit", Jsonout.String "ms");
    ]

let labels_json labels =
  Jsonout.Obj (List.map (fun (k, v) -> (k, Jsonout.String v)) labels)

let sorted_entries tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_bins = 8

let metrics_json c =
  let counters =
    List.map
      (fun (k, r) ->
        Jsonout.Obj
          [
            ("name", Jsonout.String k.metric_name);
            ("labels", labels_json k.labels);
            ("value", Jsonout.Int !r);
          ])
      (sorted_entries c.counters)
  in
  let gauges =
    List.map
      (fun (k, r) ->
        Jsonout.Obj
          [
            ("name", Jsonout.String k.metric_name);
            ("labels", labels_json k.labels);
            ("value", Jsonout.Float !r);
          ])
      (sorted_entries c.gauges)
  in
  let histograms =
    List.map
      (fun (k, h) ->
        let xs = hist_samples h in
        let bins =
          Stats.histogram ~bins:histogram_bins xs
          |> Array.to_list
          |> List.map (fun (lo, hi, count) ->
                 Jsonout.Obj
                   [
                     ("lo", Jsonout.Float lo);
                     ("hi", Jsonout.Float hi);
                     ("count", Jsonout.Int count);
                   ])
        in
        Jsonout.Obj
          [
            ("name", Jsonout.String k.metric_name);
            ("labels", labels_json k.labels);
            ("count", Jsonout.Int h.h_count);
            ("sum", Jsonout.Float h.h_sum);
            ("min", Jsonout.Float (Stats.minimum xs));
            ("max", Jsonout.Float (Stats.maximum xs));
            ("mean", Jsonout.Float (Stats.mean xs));
            ("p50", Jsonout.Float (Stats.median xs));
            ("p95", Jsonout.Float (Stats.percentile 95.0 xs));
            ("p99", Jsonout.Float (Stats.percentile 99.0 xs));
            ("stddev", Jsonout.Float (Stats.stddev xs));
            ("bins", Jsonout.List bins);
          ])
      (sorted_entries c.histograms)
  in
  Jsonout.Obj
    [
      ("counters", Jsonout.List counters);
      ("gauges", Jsonout.List gauges);
      ("histograms", Jsonout.List histograms);
    ]

let write_trace c ~path = Jsonout.write_file ~path (trace_json c)
let write_metrics c ~path = Jsonout.write_file ~path (metrics_json c)

(* {1 Snapshots}

   A point-in-time copy of the registry's scalar state. [snapshot_diff]
   is the one sanctioned "how much happened between two readings"
   subtraction: counters and histogram counts/sums as their increase,
   gauges as their change — the same per-series later-minus-earlier a
   monitoring Tsdb's [delta] computes between two retained samples, so
   bench overhead accounting and the monitor agree on one definition. *)

type snapshot = {
  snap_counters : (metric_key * int) list;
  snap_gauges : (metric_key * float) list;
  snap_hists : (metric_key * (int * float)) list; (* count, sum *)
}

let snapshot c =
  {
    snap_counters = List.map (fun (k, r) -> (k, !r)) (sorted_entries c.counters);
    snap_gauges = List.map (fun (k, r) -> (k, !r)) (sorted_entries c.gauges);
    snap_hists =
      List.map (fun (k, h) -> (k, (h.h_count, h.h_sum))) (sorted_entries c.histograms);
  }

let snapshot_diff earlier later =
  let baseline assoc k default =
    match List.assoc_opt k assoc with Some v -> v | None -> default
  in
  let entry k suffix d = (k.metric_name ^ suffix, k.labels, d) in
  let counters =
    List.map
      (fun (k, v) ->
        entry k "" (float_of_int (v - baseline earlier.snap_counters k 0)))
      later.snap_counters
  in
  let gauges =
    List.map
      (fun (k, v) -> entry k "" (v -. baseline earlier.snap_gauges k 0.0))
      later.snap_gauges
  in
  let hists =
    List.concat_map
      (fun (k, (count, sum)) ->
        let count0, sum0 = baseline earlier.snap_hists k (0, 0.0) in
        [
          entry k ".count" (float_of_int (count - count0));
          entry k ".sum" (sum -. sum0);
        ])
      later.snap_hists
  in
  List.sort compare (counters @ gauges @ hists)

(* {1 Prometheus text exposition} *)

(* Prometheus metric and label names are [a-zA-Z_:][a-zA-Z0-9_:]*; our
   dotted names ("place.moves_accepted") sanitize to underscores. *)
let prom_name s =
  let s = if s = "" then "_" else s in
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    s

(* label values allow any UTF-8 but require backslash, double quote,
   and newline escaped *)
let prom_label_value s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_label_value v))
           labels)
    ^ "}"

let prom_number f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let metrics_text c =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    (* keyed on name + kind: when sanitization collides a gauge family
       with a counter family, each still gets its own TYPE line — a
       scraper keying kinds off TYPE lines must never see gauge samples
       filed under a counter declaration *)
    if not (Hashtbl.mem typed (name, kind)) then begin
      Hashtbl.replace typed (name, kind) ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (k, r) ->
      let name = prom_name k.metric_name in
      type_line name "counter";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %d\n" name (prom_labels k.labels) !r))
    (sorted_entries c.counters);
  List.iter
    (fun (k, r) ->
      let name = prom_name k.metric_name in
      type_line name "gauge";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" name (prom_labels k.labels) (prom_number !r)))
    (sorted_entries c.gauges);
  List.iter
    (fun (k, h) ->
      (* one sort per family — the exposition is rendered with the
         serve mutex held, so per-quantile re-sorting was serve-path
         stall time *)
      let sorted = Array.init h.h_len (fun i ->
          h.h_ring.((h.h_head - h.h_len + i + histogram_window) mod histogram_window))
      in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      (* same definitions as Stats.median / Stats.percentile, off the
         one shared sort *)
      let med =
        if n = 0 then 0.0
        else if n mod 2 = 1 then sorted.(n / 2)
        else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
      in
      let q_of p =
        if n = 0 then 0.0
        else
          let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
          sorted.(max 0 (min (n - 1) (rank - 1)))
      in
      let name = prom_name k.metric_name in
      type_line name "summary";
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name
               (prom_labels (k.labels @ [ ("quantile", q) ]))
               (prom_number v)))
        [ ("0.5", med); ("0.95", q_of 95.0); ("0.99", q_of 99.0) ];
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" name (prom_labels k.labels) (prom_number h.h_sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" name (prom_labels k.labels) h.h_count))
    (sorted_entries c.histograms);
  Buffer.contents buf

let write_metrics_text c ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (metrics_text c))

(* {1 CLI export plumbing}

   Shared by eduflow and enablement: install a collector when any export
   path was requested and write each requested file exactly once at
   process exit — also on early [exit] paths (DRC violations,
   verification failure), hence [at_exit]. *)

let export_on_exit ?trace ?metrics ?metrics_text:text_path () =
  match (trace, metrics, text_path) with
  | None, None, None -> None
  | _ ->
    let c = create () in
    install c;
    let written = ref false in
    at_exit (fun () ->
        if not !written then begin
          written := true;
          let emit what write = function
            | None -> ()
            | Some path ->
              write c ~path;
              (* the notice is best-effort: a reader gone from stdout
                 ([... | head]) must not stop the remaining exports *)
              (try Printf.printf "%s written to %s\n%!" what path with Sys_error _ -> ())
          in
          emit "trace" write_trace trace;
          emit "metrics" write_metrics metrics;
          emit "metrics text" write_metrics_text text_path
        end);
    Some c

let pp_value ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.pp_print_string ppf s

let pp_trace ppf c =
  let rec pp depth span =
    Format.fprintf ppf "%s%-*s %9.2f ms" (String.make (2 * depth) ' ')
      (max 1 (28 - (2 * depth)))
      span.name (span_duration_ms span);
    List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%a" k pp_value v) (span_attrs span);
    Format.fprintf ppf "@.";
    List.iter (pp (depth + 1)) (span_children span)
  in
  List.iter (pp 0) (root_spans c)
