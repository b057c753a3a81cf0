module Obs = Educhip_obs.Obs
module Rng = Educhip_util.Rng

type kind = Crash | Hang | Corrupt

let kind_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Corrupt -> "corrupt"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "crash" -> Crash
  | "hang" -> Hang
  | "corrupt" -> Corrupt
  | other -> invalid_arg ("Fault.kind_of_string: unknown fault kind " ^ other)

type arming = { site : string; fault : kind; count : int }
type plan = arming list

let arming ?(count = 1) site fault =
  if count <= 0 then invalid_arg "Fault.arming: count must be positive";
  { site; fault; count }

let arming_of_string spec =
  let bad () =
    invalid_arg
      (Printf.sprintf "Fault.arming_of_string: malformed spec %S (expected SITE:KIND[@N])" spec)
  in
  match String.index_opt spec ':' with
  | None -> bad ()
  | Some i ->
      let site = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      if site = "" || rest = "" then bad ();
      let kind_str, count =
        match String.index_opt rest '@' with
        | None -> (rest, 1)
        | Some j -> (
            let k = String.sub rest 0 j in
            let n = String.sub rest (j + 1) (String.length rest - j - 1) in
            match int_of_string_opt n with
            | Some c when c > 0 -> (k, c)
            | _ -> bad ())
      in
      { site; fault = kind_of_string kind_str; count }

let arming_to_string a =
  if a.count = 1 then Printf.sprintf "%s:%s" a.site (kind_name a.fault)
  else Printf.sprintf "%s:%s@%d" a.site (kind_name a.fault) a.count

(* Wire-level fault sites probed by the daemons' connection layer
   (Educhip_serve.Listener), alongside the flow/kernel sites probed inside
   jobs. Same injector machinery; the serving process arms them in its
   accept-loop domain, so connection threads share one budget and worker
   domains (which arm per-job flow plans) never see them. *)
let serve_accept = "serve.accept"
let serve_read = "serve.read"
let serve_write = "serve.write"
let serve_sites = [ serve_accept; serve_read; serve_write ]

exception Injected of string * kind

(* Live injector state: per-site mutable remaining counts, one slot per
   kind. Merging armings per (site, kind) up front keeps probe-time work
   to a hashtable lookup plus integer tests, and makes firing order
   independent of how the plan list was assembled. *)
type slots = { mutable crash : int; mutable hang : int; mutable corrupt : int }

type injector = { sites : (string, slots) Hashtbl.t; rng : Rng.t }

(* Domain-local, like the [Obs] sink: each scheduler worker arms its
   job's plan in its own domain, so one worker's firings never consume
   another worker's budget and batch results stay independent of worker
   count. A fresh domain starts disarmed. *)
let current : injector option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_current () = Domain.DLS.get current
let set_current v = Domain.DLS.set current v

let arm ~seed plan =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun a ->
      if a.count <= 0 then invalid_arg "Fault.arm: arming count must be positive";
      let s =
        match Hashtbl.find_opt sites a.site with
        | Some s -> s
        | None ->
            let s = { crash = 0; hang = 0; corrupt = 0 } in
            Hashtbl.add sites a.site s;
            s
      in
      match a.fault with
      | Crash -> s.crash <- s.crash + a.count
      | Hang -> s.hang <- s.hang + a.count
      | Corrupt -> s.corrupt <- s.corrupt + a.count)
    plan;
  set_current (Some { sites; rng = Rng.create ~seed })

let disarm () = set_current None
let active () = get_current () <> None

let with_plan ~seed plan f =
  let saved = get_current () in
  arm ~seed plan;
  Fun.protect ~finally:(fun () -> set_current saved) f

let fire site kind =
  Obs.incr_counter
    ~labels:[ ("site", site); ("kind", kind_name kind) ]
    "fault.injected"

let check site =
  match get_current () with
  | None -> ()
  | Some inj -> (
      match Hashtbl.find_opt inj.sites site with
      | None -> ()
      | Some s ->
          let kind =
            if s.crash > 0 && s.hang > 0 then
              (* Both raising kinds armed: the plan RNG decides which
                 fires first, keeping multi-kind plans reproducible from
                 (seed, plan) alone. *)
              if Rng.bool inj.rng then Some Crash else Some Hang
            else if s.crash > 0 then Some Crash
            else if s.hang > 0 then Some Hang
            else None
          in
          match kind with
          | None -> ()
          | Some Crash ->
              s.crash <- s.crash - 1;
              fire site Crash;
              raise (Injected (site, Crash))
          | Some Hang ->
              s.hang <- s.hang - 1;
              fire site Hang;
              raise (Injected (site, Hang))
          | Some Corrupt -> ())

let corrupted site =
  match get_current () with
  | None -> false
  | Some inj -> (
      match Hashtbl.find_opt inj.sites site with
      | Some s when s.corrupt > 0 ->
          s.corrupt <- s.corrupt - 1;
          fire site Corrupt;
          true
      | _ -> false)

let remaining site =
  match get_current () with
  | None -> 0
  | Some inj -> (
      match Hashtbl.find_opt inj.sites site with
      | None -> 0
      | Some s -> s.crash + s.hang + s.corrupt)
