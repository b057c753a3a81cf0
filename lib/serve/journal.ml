module Jsonout = Educhip_obs.Jsonout
module Crc32 = Educhip_util.Crc32
module Files = Educhip_util.Files

let magic = "EDUJ1"

type entry =
  | Accepted of { id : string; spec : Wire.submit_spec }
  | Started of { id : string }
  | Done of { id : string; verdict : string }

let entry_id = function
  | Accepted { id; _ } | Started { id } | Done { id; _ } -> id

(* {1 Line codec} *)

let entry_payload = function
  | Accepted { id; spec } ->
    Jsonout.Obj
      [
        ("e", Jsonout.String "accepted");
        ("id", Jsonout.String id);
        ("req", Wire.submit_to_json spec);
      ]
  | Started { id } ->
    Jsonout.Obj [ ("e", Jsonout.String "started"); ("id", Jsonout.String id) ]
  | Done { id; verdict } ->
    Jsonout.Obj
      [
        ("e", Jsonout.String "done");
        ("id", Jsonout.String id);
        ("verdict", Jsonout.String verdict);
      ]

let entry_to_line e =
  let payload = Jsonout.to_string (entry_payload e) in
  Printf.sprintf "%s %s %s" magic (Crc32.to_hex (Crc32.digest payload)) payload

let payload_of_json json =
  match Jsonout.string "e" json with
  | None -> Error "journal entry: missing e field"
  | Some kind -> (
    match Jsonout.string "id" json with
    | None -> Error "journal entry: missing id field"
    | Some id -> (
      match kind with
      | "accepted" -> (
        match Jsonout.member "req" json with
        | None -> Error "journal entry: accepted without req"
        | Some req ->
          Result.map
            (fun spec -> Accepted { id; spec })
            (Result.map_error
               (fun msg -> "journal entry: " ^ msg)
               (Wire.submit_of_json req)))
      | "started" -> Ok (Started { id })
      | "done" -> (
        match Jsonout.string "verdict" json with
        | Some verdict -> Ok (Done { id; verdict })
        | None -> Error "journal entry: done without verdict")
      | other -> Error (Printf.sprintf "journal entry: unknown kind %S" other)))

let entry_of_line line =
  (* MAGIC SP crc8 SP payload — fixed-width prefix, so the payload
     offset is a constant *)
  let prefix_len = String.length magic + 1 + 8 + 1 in
  if String.length line < prefix_len + 2 then Error "journal line: too short"
  else if String.sub line 0 (String.length magic) <> magic then
    Error
      (Printf.sprintf "journal line: bad magic %S (speak %s)"
         (String.sub line 0 (min (String.length line) (String.length magic)))
         magic)
  else if line.[String.length magic] <> ' ' || line.[prefix_len - 1] <> ' ' then
    Error "journal line: malformed header"
  else
    match Crc32.of_hex (String.sub line (String.length magic + 1) 8) with
    | None -> Error "journal line: malformed checksum"
    | Some crc ->
      let plen = String.length line - prefix_len in
      if Crc32.digest_sub line ~pos:prefix_len ~len:plen <> crc then
        Error "journal line: checksum mismatch (torn write?)"
      else (
        match Jsonout.of_string (String.sub line prefix_len plen) with
        | exception Failure msg -> Error ("journal line: " ^ msg)
        | json -> payload_of_json json)

(* {1 Appending} *)

type t = { jpath : string; fd : Unix.file_descr; oc : out_channel; mutex : Mutex.t }

let open_ ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* heal a torn tail: if the last byte is not '\n', a crash interrupted
     an append mid-line. Terminate it now so the next entry starts a
     fresh line instead of being glued to the torn one (which would
     corrupt a valid entry). The torn line itself still fails its CRC
     and is dropped by [load]. *)
  let size = (Unix.fstat fd).Unix.st_size in
  if size > 0 then begin
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    let last = Bytes.create 1 in
    if Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n' then begin
      ignore (Unix.write_substring fd "\n" 0 1);
      Unix.fsync fd
    end
  end;
  { jpath = path; fd; oc = Unix.out_channel_of_descr fd; mutex = Mutex.create () }

let append t e =
  Mutex.protect t.mutex (fun () ->
      output_string t.oc (entry_to_line e);
      output_char t.oc '\n';
      flush t.oc;
      Unix.fsync t.fd)

let close t =
  Mutex.protect t.mutex (fun () ->
      try close_out t.oc (* closes the underlying fd *)
      with Sys_error _ -> ())

let path t = t.jpath

(* {1 Loading} *)

type loaded = { entries : entry list; dropped : int }

let load ~path =
  match Files.read_file path with
  | None -> { entries = []; dropped = 0 }
  | Some text ->
    let entries = ref [] and dropped = ref 0 in
    List.iter
      (fun line ->
        if line <> "" then
          match entry_of_line line with
          | Ok e -> entries := e :: !entries
          | Error _ -> incr dropped)
      (String.split_on_char '\n' text);
    { entries = List.rev !entries; dropped = !dropped }

type recovery = {
  pending : (string * Wire.submit_spec) list;
  started_incomplete : int;
  completed : (string * Wire.submit_spec * string) list;
  entries_read : int;
  dropped : int;
}

let recover ~path =
  let { entries; dropped } = load ~path in
  let specs = Hashtbl.create 64 in
  let started = Hashtbl.create 64 in
  let verdicts = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      match e with
      | Accepted { id; spec } ->
        if not (Hashtbl.mem specs id) then begin
          Hashtbl.replace specs id spec;
          order := id :: !order
        end
      | Started { id } -> Hashtbl.replace started id ()
      | Done { id; verdict } -> Hashtbl.replace verdicts id verdict)
    entries;
  let order = List.rev !order in
  let pending, completed =
    List.fold_left
      (fun (p, c) id ->
        let spec = Hashtbl.find specs id in
        match Hashtbl.find_opt verdicts id with
        | Some verdict -> (p, (id, spec, verdict) :: c)
        | None -> ((id, spec) :: p, c))
      ([], []) order
  in
  let pending = List.rev pending and completed = List.rev completed in
  {
    pending;
    started_incomplete =
      List.length (List.filter (fun (id, _) -> Hashtbl.mem started id) pending);
    completed;
    entries_read = List.length entries;
    dropped;
  }

let compact ~path entries =
  let tmp = path ^ ".compact." ^ string_of_int (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (entry_to_line e);
          output_char oc '\n')
        entries;
      flush oc;
      Unix.fsync fd);
  Sys.rename tmp path
