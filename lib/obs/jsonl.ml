let append_mutex = Mutex.create ()

let append ~path json =
  let line = Jsonout.to_string json ^ "\n" in
  Mutex.protect append_mutex (fun () ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc line;
          flush oc))

let load ~path ~decode =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line -> (
            let line = String.trim line in
            if line = "" then go acc
            else
              match decode (Jsonout.of_string line) with
              | Some v -> go (v :: acc)
              | None | (exception Failure _) -> go acc)
        in
        go [])
