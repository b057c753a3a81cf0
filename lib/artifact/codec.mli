(** Step-state (de)serialization for the artifact store.

    Snapshots are plain {!Educhip_obs.Jsonout} values, human-inspectable
    on disk like every other educhip artifact. One deliberate omission
    keeps snapshots tenant-neutral: the netlist's display name is
    {e not} stored — content addressing keys on the structural digest,
    so structurally identical designs from different tenants share
    artifacts, and each restoring run re-labels the state with its own
    design name from the decode {!ctx}. *)

type ctx = {
  design_name : string;  (** re-applied to restored netlists *)
  node : Educhip_pdk.Pdk.node;
  netlist : Educhip_netlist.Netlist.t option;
      (** the mapped netlist restored earlier in the chain; needed to
          rebuild a placement *)
  placement : Educhip_place.Place.t option;
      (** the placement restored earlier in the chain; needed to rebuild
          routing *)
}
(** Everything a decode needs that is deliberately not stored. *)

val state_to_json : Educhip_flow.Flow.step_state -> string * Educhip_obs.Jsonout.t
(** [(tag, payload)] — the tag names the state's constructor and is
    stored alongside the payload for decode dispatch.
    @raise Invalid_argument on [S_not_stored]. *)

val state_of_json :
  ctx -> tag:string -> Educhip_obs.Jsonout.t -> Educhip_flow.Flow.step_state option
(** [None] when the required upstream context is missing (treated as a
    cache miss — the step runs live).
    @raise Failure on a malformed payload or unknown tag (treated as
    corruption — the entry is quarantined). *)

val report_to_json : Educhip_flow.Flow.step_report -> Educhip_obs.Jsonout.t
val report_of_json : Educhip_obs.Jsonout.t -> Educhip_flow.Flow.step_report
val exec_to_json : Educhip_flow.Flow.step_exec -> Educhip_obs.Jsonout.t
val exec_of_json : Educhip_obs.Jsonout.t -> Educhip_flow.Flow.step_exec
