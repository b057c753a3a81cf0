module Jsonout = Educhip_obs.Jsonout
module Obs = Educhip_obs.Obs
module Crc32 = Educhip_util.Crc32
module Files = Educhip_util.Files

type t = {
  family : string;
  dir : string;
  max_entries : int;
  mutex : Mutex.t;
  mutable count : int option;
      (* live entries at the last listing, plus the files this store has
         created since, minus the ones it has removed; [None] until the
         first put lists the directory *)
}

let create ~family ?(max_entries = 512) ~dir () =
  if max_entries < 1 then
    invalid_arg (Printf.sprintf "Kv.create: max_entries must be >= 1, got %d" max_entries);
  { family; dir; max_entries; mutex = Mutex.create (); count = None }

let dir t = t.dir

let counters =
  [
    "hits"; "misses"; "stores"; "evicted"; "quarantined"; "bytes_written"; "bytes_read";
    "listings";
  ]

let metric_names ~family = List.map (fun c -> family ^ "." ^ c) counters
let counter t c = t.family ^ "." ^ c
let entry_path t key = Filename.concat t.dir (key ^ ".json")
let quarantine_dir t = Filename.concat t.dir "quarantine"

(* On-disk form: the payload object with a [crc] member spliced in front
   of its closing brace, holding the CRC-32 of the payload bytes without
   that member. The member is always last and fixed-width, so a reader
   recovers the checksummed bytes by cutting it off again. *)
let crc_open = {|,"crc":"|}
let crc_member_len = String.length crc_open + 8 + String.length {|"}|}

let to_disk payload =
  let payload = Jsonout.to_string payload in
  let crc = Crc32.to_hex (Crc32.digest payload) in
  String.sub payload 0 (String.length payload - 1) ^ crc_open ^ crc ^ "\"}\n"

(* The payload bytes of an entry's text, or [None] when the trailing crc
   member is missing, malformed, or does not match them. *)
let verified_payload text =
  let n = String.length text in
  let n = if n > 0 && text.[n - 1] = '\n' then n - 1 else n in
  let m = n - crc_member_len in
  if m < 1 || String.sub text m (String.length crc_open) <> crc_open
     || String.sub text (n - 2) 2 <> {|"}|}
  then None
  else
    match Crc32.of_hex (String.sub text (m + String.length crc_open) 8) with
    | None -> None
    | Some crc ->
      let payload = String.sub text 0 m ^ "}" in
      if Crc32.digest payload = crc then Some payload else None

let decode_text ~decode text =
  match verified_payload text with
  | None -> None
  | Some payload -> (
    match decode (Jsonout.of_string payload) with
    | v -> Some v
    | exception Failure _ -> None)

let json_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names -> Array.to_list names |> List.filter (fun n -> Filename.check_suffix n ".json")

(* never below 0: a clear or a quarantine can remove an entry another
   store wrote, which this count has not seen *)
let lose_one t = t.count <- Option.map (fun n -> max 0 (n - 1)) t.count

(* Lists the directory, evicts down to the cap (oldest mtime first; name
   breaks ties so eviction order is stable) and resets the count from
   that listing. *)
let evict_locked t =
  Obs.incr_counter (counter t "listings");
  let files = json_files t.dir in
  let listed = List.length files in
  t.count <- Some listed;
  let excess = listed - t.max_entries in
  if excess > 0 then
    files
    |> List.filter_map (fun n ->
           let path = Filename.concat t.dir n in
           match Unix.stat path with
           | st -> Some (st.Unix.st_mtime, n, path)
           | exception Unix.Unix_error _ -> None)
    |> List.sort compare
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun (_, _, path) ->
           match Sys.remove path with
           | () ->
             lose_one t;
             Obs.incr_counter (counter t "evicted")
           | exception Sys_error _ -> ())

(* Temp names are unique per write, not just per process: two stores
   opened on one directory in one process do not share a lock. *)
let tmp_seq = Atomic.make 0

let put t key payload =
  (match payload with
  | Jsonout.Obj (_ :: _) -> ()
  | _ -> invalid_arg "Kv.put: payload must be a non-empty object");
  let text = to_disk payload in
  Mutex.protect t.mutex (fun () ->
      Files.mkdir_p t.dir;
      let path = entry_path t key in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
      in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
      let created = not (Sys.file_exists path) in
      Sys.rename tmp path;
      Obs.incr_counter (counter t "stores");
      Obs.add_counter (counter t "bytes_written") (String.length text);
      match t.count with
      | Some _ when not created -> ()
      | Some n when n < t.max_entries -> t.count <- Some (n + 1)
      | Some _ | None -> evict_locked t)

(* Corrupt entries are evidence (bit rot, a torn copy, a bad deploy), not
   garbage: moved aside for inspection, out of sight of [json_files]. *)
let quarantine_locked t path =
  let qdir = quarantine_dir t in
  Files.mkdir_p qdir;
  (match Sys.rename path (Filename.concat qdir (Filename.basename path)) with
  | () -> lose_one t
  | exception Sys_error _ -> ());
  Obs.incr_counter (counter t "quarantined")

let quarantine t key =
  Mutex.protect t.mutex (fun () ->
      let path = entry_path t key in
      if Sys.file_exists path then quarantine_locked t path)

let get t key ~decode =
  Mutex.protect t.mutex (fun () ->
      let path = entry_path t key in
      let found =
        match Files.read_file path with
        | None -> None
        | Some text -> (
          match decode_text ~decode text with
          | Some v ->
            Obs.add_counter (counter t "bytes_read") (String.length text);
            (* touch for LRU: eviction is oldest-mtime-first *)
            (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
            Some v
          | None ->
            quarantine_locked t path;
            None)
      in
      Obs.incr_counter (counter t (if Option.is_some found then "hits" else "misses"));
      found)

let probe t key ~decode =
  Mutex.protect t.mutex (fun () ->
      match Files.read_file (entry_path t key) with
      | None -> false
      | Some text -> Option.is_some (decode_text ~decode text))

let entries t = Mutex.protect t.mutex (fun () -> List.length (json_files t.dir))
let quarantined t = Mutex.protect t.mutex (fun () -> List.length (json_files (quarantine_dir t)))

let clear t =
  Mutex.protect t.mutex (fun () ->
      List.iter
        (fun n ->
          match Sys.remove (Filename.concat t.dir n) with
          | () -> lose_one t
          | exception Sys_error _ -> ())
        (json_files t.dir))
