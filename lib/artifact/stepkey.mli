(** Chained per-step content keys.

    Each stored flow step's artifact is addressed by
    [H(step_name, config slice, fault slice, upstream key)], a Merkle-style
    chain seeded with the artifact-schema version and the netlist's
    structural digest. Consequences, by construction:

    - changing step N's knobs changes the keys of steps ≥ N and leaves
      steps < N untouched — a late-step edit resumes from a warm prefix;
    - changing the RTL (the structural digest) changes every key;
    - two structurally identical designs — different tenants, different
      display names — share the whole chain, so artifacts dedupe across
      tenants, campaigns, and replicas pointed at one store directory. *)

val version : string
(** Schema/derivation version folded into every chain; bump to invalidate
    all stored artifacts. *)

val slice : Educhip_flow.Flow.config -> step:string -> string
(** The fields of [Flow.config_signature] this step's result depends on.
    Signature fields not assigned to any step join {e every} slice, so a
    future config knob over-invalidates rather than going stale.
    @raise Invalid_argument on a step name outside
    [Educhip_flow.Flow.stored_step_names]. *)

val fault_slice :
  inject:Educhip_fault.Fault.plan ->
  fault_seed:int ->
  retries:int ->
  step:string ->
  string
(** The armings that can change this step's outcome (its [flow.<step>]
    site plus kernel-interior sites), with the seed and retry budget.
    Plans arming both [Crash] and [Hang] couple sites through the
    injector's shared RNG, so those put the whole plan in every slice. *)

val chain :
  netlist:Educhip_netlist.Netlist.t ->
  cfg:Educhip_flow.Flow.config ->
  inject:Educhip_fault.Fault.plan ->
  fault_seed:int ->
  retries:int ->
  (string * string) list
(** [(step_name, key)] for every step of
    [Educhip_flow.Flow.stored_step_names], in flow order. *)
