(* The connection-cap probe shared by @servecheck (in-process server)
   and @clustercheck (in-process router): fill the daemon's
   [Listener.max_connections] slots with answered connections, then
   one more connection's request must wait unanswered until a slot
   frees. *)

module Wire = Educhip_serve.Wire
module Client = Educhip_serve.Client
module Listener = Educhip_serve.Listener

type outcome = {
  all_answered : bool;  (* every one of the first max_connections *)
  extra_waited : bool;  (* the next one: no answer within 200 ms *)
  extra_answered : bool;  (* ... until one of the first closed *)
  healthy : bool;  (* a fresh connection afterwards *)
}

let healthy c =
  match Client.request c Wire.Health with Ok (Wire.Health_report _) -> true | _ -> false

let probe socket =
  let first = List.init Listener.max_connections (fun _ -> Client.connect_unix socket) in
  let answered = List.map healthy first in
  let extra = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect extra (Unix.ADDR_UNIX socket);
  let line = Wire.encode_request Wire.Health ^ "\n" in
  ignore (Unix.write_substring extra line 0 (String.length line));
  let pending = Buffer.create 256 in
  let extra_waited =
    Listener.read_request_line extra ~pending ~timeout_ms:200.0 = Listener.Timed_out
  in
  Client.close (List.hd first);
  let extra_answered =
    match Listener.read_request_line extra ~pending ~timeout_ms:10_000.0 with
    | Listener.Line l -> (
      match Wire.decode_response l with Ok (Wire.Health_report _) -> true | _ -> false)
    | _ -> false
  in
  Unix.close extra;
  List.iter Client.close (List.tl first);
  let c = Client.connect_unix socket in
  let healthy = healthy c in
  Client.close c;
  { all_answered = List.for_all Fun.id answered; extra_waited; extra_answered; healthy }
