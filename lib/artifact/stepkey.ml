module Flow = Educhip_flow.Flow
module Fault = Educhip_fault.Fault
module Netlist = Educhip_netlist.Netlist
module Synth = Educhip_synth.Synth
module Place = Educhip_place.Place
module Route = Educhip_route.Route

(* Bump on any change to snapshot semantics or key derivation; the step
   list is folded in so reordering the template also invalidates keys.
   It names the whole template, [gds] included, although [gds] is no
   longer stored: keeping the string keeps every stored step's key, and
   so every existing store, valid. *)
let version = "educhip-artifact/1:" ^ String.concat "," Flow.step_names

(* [Flow.config_signature] renders every config field as "key=value"
   joined by ';'. Splitting it — rather than re-rendering fields here —
   keeps this module honest: a knob can't influence results without
   appearing in the signature, and thus in some slice. *)
let signature_fields cfg =
  String.split_on_char ';' (Flow.config_signature cfg)
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> (String.sub kv 0 i, kv)
         | None -> (kv, kv))

(* Which signature fields each step's result depends on. [node] is in
   every slice: the PDK parameterizes every kernel. *)
let step_fields =
  [
    ("synthesis", [ "node"; "synth" ]);
    ("sizing", [ "node"; "sizing" ]);
    ("buffering", [ "node"; "fanout" ]);
    ("placement", [ "node"; "place"; "util" ]);
    ("cts", [ "node" ]);
    ("routing", [ "node"; "route" ]);
    ("sta", [ "node"; "clock" ]);
    ("power", [ "node"; "clock"; "power" ]);
    ("drc", [ "node" ]);
  ]

let known_fields =
  List.sort_uniq compare (List.concat_map snd step_fields)

let slice cfg ~step =
  let wanted =
    match List.assoc_opt step step_fields with
    | Some w -> w
    | None -> invalid_arg ("Stepkey.slice: unknown step " ^ step)
  in
  signature_fields cfg
  (* a signature field this table doesn't know about joins every slice:
     over-invalidation is safe, a stale hit is not *)
  |> List.filter (fun (k, _) -> List.mem k wanted || not (List.mem k known_fields))
  |> List.map snd
  |> String.concat ";"

(* Fault sites whose armings can change this step's stored outcome: the
   flow-level site plus the kernel-interior sites the step calls into. *)
let step_sites step =
  ("flow." ^ step)
  ::
  (match step with
  | "synthesis" -> Synth.fault_sites
  | "placement" -> Place.fault_sites
  | "routing" -> Route.fault_sites
  | _ -> [])

(* When both Crash and Hang are armed anywhere in a plan, the injector's
   shared RNG couples sites: consuming a firing at one site advances the
   stream every other dual-armed site draws from. Skipping a warm step
   then perturbs later live steps, so such plans put the whole plan into
   every slice — each step's key sees any plan change, and only fully
   identical plans share artifacts. *)
let rng_coupled plan =
  List.exists (fun (a : Fault.arming) -> a.Fault.fault = Fault.Crash) plan
  && List.exists (fun (a : Fault.arming) -> a.Fault.fault = Fault.Hang) plan

let fault_slice ~inject ~fault_seed ~retries ~step =
  let relevant =
    if rng_coupled inject then inject
    else
      let sites = step_sites step in
      List.filter (fun (a : Fault.arming) -> List.mem a.Fault.site sites) inject
  in
  Printf.sprintf "seed=%d;retries=%d;%s" fault_seed retries
    (String.concat "," (List.map Fault.arming_to_string relevant))

(* key_i = H(step_i, config slice_i, fault slice_i, key_{i-1}) over the
   stored steps; the chain is seeded with the code version and the
   netlist's structural digest, so an RTL change invalidates everything
   while a late-step knob change leaves every upstream key — and its
   stored artifact — intact. *)
let chain ~netlist ~cfg ~inject ~fault_seed ~retries =
  let root =
    Digest.to_hex
      (Digest.string (version ^ "\x00" ^ Netlist.structural_digest netlist))
  in
  let _, rev_keys =
    List.fold_left
      (fun (up, acc) step ->
        let key =
          Digest.to_hex
            (Digest.string
               (String.concat "\x00"
                  [
                    step;
                    slice cfg ~step;
                    fault_slice ~inject ~fault_seed ~retries ~step;
                    up;
                  ]))
        in
        (key, (step, key) :: acc))
      (root, []) Flow.stored_step_names
  in
  List.rev rev_keys
