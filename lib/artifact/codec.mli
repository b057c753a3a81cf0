(** Step-state (de)serialization for the artifact store.

    One compact binary form, owned by this module alone: ints are zigzag
    LEB128 varints, floats their 64-bit IEEE-754 bits (so a replayed
    float is bit-for-bit the stored one), strings and sequences carry
    their length first. The decoder checks every length against the
    bytes left before it allocates, and fails with [Failure] on anything
    malformed — truncation, an unknown code, trailing bytes — or on a
    snapshot the kernel's own [restore] rejects.

    One deliberate omission keeps snapshots tenant-neutral: the
    netlist's display name is {e not} stored — content addressing keys
    on the structural digest, so structurally identical designs from
    different tenants share artifacts, and each restoring run re-labels
    the state with its own design name from the decode {!ctx}. *)

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

val encode_state : Educhip_flow.Flow.step_state -> string * string
(** [(tag, bytes)] — the tag names the state's constructor and is
    stored alongside the bytes for decode dispatch.
    @raise Invalid_argument on [S_not_stored]. *)

val decode_state :
  ctx -> tag:string -> string -> Educhip_flow.Flow.step_state option
(** [None] when the required upstream context is missing (treated as a
    cache miss — the step runs live).
    @raise Failure on malformed bytes, an unknown tag, or a snapshot
    that [Netlist.restore], [Place.restore] or [Route.restore] rejects
    (treated as corruption — the entry is quarantined). *)

val encode_route : Educhip_route.Route.snapshot -> string
(** The bytes {!encode_state} writes for [S_route r], given
    [Route.snapshot r] — for building routing states no router produced,
    to check that {!decode_state} rejects them. *)

type entry = {
  key : string;  (** the chained content key — also the filename stem *)
  step : string;
  tag : string;  (** {!encode_state}'s dispatch tag *)
  state : string;
      (** {!encode_state}'s bytes; decoding is deferred to [Artifact],
          which holds the upstream context a decode needs *)
  report : Educhip_flow.Flow.step_report;
  exec : Educhip_flow.Flow.step_exec;
}
(** One stored artifact. *)

val encode_entry : entry -> string

val decode_entry : string -> len:int -> entry
(** Decodes the entry held in the first [len] bytes of the string.
    @raise Failure on malformed bytes or bytes past the entry.
    @raise Invalid_argument unless [0 <= len <= String.length s]. *)
