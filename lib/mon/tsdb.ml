module Jsonout = Educhip_obs.Jsonout
module Stats = Educhip_util.Stats

type kind = Counter | Gauge | Summary

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Summary -> "summary"

let kind_of_name = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | "summary" -> Some Summary
  | _ -> None

type series = {
  name : string;
  labels : (string * string) list; (* sorted *)
  kind : kind;
  ts : float array; (* ring, parallel to vs *)
  vs : float array;
  mutable head : int; (* index of the oldest sample *)
  mutable len : int;
  mutable evicted : int;
  mutable dropped : int;
}

type key = string * (string * string) list

type t = {
  capacity : int;
  tbl : (key, series) Hashtbl.t;
  mutable order : series list; (* newest first *)
}

let schema_version = 1

let create ?(capacity = 512) () =
  if capacity < 2 then
    invalid_arg (Printf.sprintf "Tsdb.create: capacity %d < 2" capacity);
  { capacity; tbl = Hashtbl.create 64; order = [] }

let capacity t = t.capacity
let series_key name labels : key = (name, List.sort compare labels)
let find t ?(labels = []) name = Hashtbl.find_opt t.tbl (series_key name labels)
let series_list t = List.rev t.order
let series_name s = s.name
let series_labels s = s.labels
let series_kind s = s.kind
let length s = s.len
let evicted s = s.evicted
let dropped s = s.dropped

let subset where labels =
  List.for_all (fun (k, v) -> List.assoc_opt k labels = Some v) where

let show_labels ?(cell = false) = function
  | [] -> if cell then "-" else ""
  | ls ->
    let body = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) in
    if cell then body else "{" ^ body ^ "}"

let select t ?(where = []) name =
  List.filter (fun s -> s.name = name && subset where s.labels) (series_list t)

(* physical index of logical position [i] (0 = oldest) *)
let idx s i = (s.head + i) mod Array.length s.ts

let nth_ts s i = s.ts.(idx s i)
let nth_v s i = s.vs.(idx s i)

let last s = if s.len = 0 then None else Some (nth_ts s (s.len - 1), nth_v s (s.len - 1))

let samples s =
  let rec go i acc = if i < 0 then acc else go (i - 1) ((nth_ts s i, nth_v s i) :: acc) in
  go (s.len - 1) []

let record t ?(labels = []) ~kind ~t_ms name v =
  let key = series_key name labels in
  let s =
    match Hashtbl.find_opt t.tbl key with
    | Some s -> s
    | None ->
      let s =
        {
          name;
          labels = snd key;
          kind;
          ts = Array.make t.capacity 0.0;
          vs = Array.make t.capacity 0.0;
          head = 0;
          len = 0;
          evicted = 0;
          dropped = 0;
        }
      in
      Hashtbl.replace t.tbl key s;
      t.order <- s :: t.order;
      s
  in
  let newest = match last s with Some (ts, _) -> ts | None -> neg_infinity in
  if t_ms < newest || not (Float.is_finite v && Float.is_finite t_ms) then begin
    s.dropped <- s.dropped + 1;
    false
  end
  else begin
    let cap = Array.length s.ts in
    if s.len = cap then begin
      (* full: overwrite the oldest slot and advance the head *)
      s.ts.(s.head) <- t_ms;
      s.vs.(s.head) <- v;
      s.head <- (s.head + 1) mod cap;
      s.evicted <- s.evicted + 1
    end
    else begin
      s.ts.(idx s s.len) <- t_ms;
      s.vs.(idx s s.len) <- v;
      s.len <- s.len + 1
    end;
    true
  end

(* {1 Window functions} *)

let in_window ~window_ms ~now_ms ts = ts > now_ms -. window_ms && ts <= now_ms

let value_at s ~t_ms =
  let rec go i best =
    if i >= s.len then best
    else if nth_ts s i <= t_ms then go (i + 1) (Some (nth_v s i))
    else best
  in
  go 0 None

(* fold [f] over the sample values inside the window, oldest first *)
let fold_values s ~window_ms ~now_ms f init =
  let rec go i acc =
    if i >= s.len then acc
    else
      let ts = nth_ts s i in
      if ts > now_ms then acc
      else go (i + 1) (if in_window ~window_ms ~now_ms ts then f acc (nth_v s i) else acc)
  in
  go 0 init

(* fold [f] over consecutive pairs whose *later* sample is in the
   window: each increment lands in exactly one window, which is what
   makes [delta] additive over adjacent windows. *)
let fold_pairs s ~window_ms ~now_ms f init =
  let rec go i acc =
    if i + 1 >= s.len then acc
    else
      let ts1 = nth_ts s (i + 1) in
      if ts1 > now_ms then acc
      else
        go (i + 1)
          (if in_window ~window_ms ~now_ms ts1 then f acc (nth_v s i) (nth_v s (i + 1))
           else acc)
  in
  go 0 init

let window_values s ~window_ms ~now_ms =
  List.rev (fold_values s ~window_ms ~now_ms (fun acc v -> v :: acc) [])

let nonempty s ~window_ms ~now_ms =
  fold_values s ~window_ms ~now_ms (fun _ _ -> true) false

let delta s ~window_ms ~now_ms =
  if not (nonempty s ~window_ms ~now_ms) then None
  else Some (fold_pairs s ~window_ms ~now_ms (fun acc v0 v1 -> acc +. (v1 -. v0)) 0.0)

let rate s ~window_ms ~now_ms =
  if not (nonempty s ~window_ms ~now_ms) || window_ms <= 0.0 then None
  else
    let inc =
      fold_pairs s ~window_ms ~now_ms (fun acc v0 v1 -> acc +. Float.max 0.0 (v1 -. v0)) 0.0
    in
    Some (inc /. (window_ms /. 1000.0))

let over_values f s ~window_ms ~now_ms =
  match window_values s ~window_ms ~now_ms with [] -> None | vs -> Some (f vs)

let avg s = over_values Stats.mean s
let max_ s = over_values Stats.maximum s
let min_ s = over_values Stats.minimum s

let quantile s ~q =
  if q < 0.0 || q > 1.0 then
    invalid_arg (Printf.sprintf "Tsdb.quantile: q %g outside [0, 1]" q);
  over_values (Stats.percentile (q *. 100.0)) s

let series_json s =
  Jsonout.Obj
    [
      ("name", Jsonout.String s.name);
      ("labels", Jsonout.Obj (List.map (fun (k, v) -> (k, Jsonout.String v)) s.labels));
      ("kind", Jsonout.String (kind_name s.kind));
      ("evicted", Jsonout.Int s.evicted);
      ("dropped", Jsonout.Int s.dropped);
      ( "samples",
        Jsonout.List
          (List.map
             (fun (ts, v) -> Jsonout.List [ Jsonout.Float ts; Jsonout.Float v ])
             (samples s)) );
    ]

let to_json t =
  Jsonout.Obj
    [
      ("schema", Jsonout.Int schema_version);
      ("capacity", Jsonout.Int t.capacity);
      ("series", Jsonout.List (List.map series_json (series_list t)));
    ]
