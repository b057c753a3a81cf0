(** Schema-versioned JSONL alert log.

    Every alert state {e transition} the rule engine emits becomes one
    line of JSON — the durable record an operator (or the [@moncheck]
    gate) replays to reconstruct what fired when. Same discipline as
    [Educhip_obs.Runlog]: a [schema] stamp on every line, unknown
    members preserved through decode → re-encode ([extra]), and the
    same {!Educhip_obs.Jsonl} file discipline: blank, torn and bad lines
    skipped on load, single-write + flush appends under a process-wide
    mutex so concurrent writers never tear a line. *)

val schema_version : int
(** Currently [1]. *)

type state = Pending | Firing | Resolved
(** The transition recorded: the rule's condition has held (pending),
    has held for its [for] duration (firing), or has been false for its
    [resolve] duration after firing (resolved). *)

val state_name : state -> string
val state_of_name : string -> state option

type entry = {
  schema : int;
  t_ms : float;  (** evaluation timestamp, caller's clock *)
  tick : int;  (** scrape tick index — the deterministic coordinate *)
  rule : string;
  labels : (string * string) list;
      (** the matched series' labels — one alert instance per
          rule × label set, so a per-target rule pages per target *)
  state : state;
  value : float;  (** the evaluated expression at transition time *)
  threshold : float;
  severity : string;
  extra : (string * Educhip_obs.Jsonout.t) list;
}

val make :
  t_ms:float ->
  tick:int ->
  rule:string ->
  ?labels:(string * string) list ->
  state:state ->
  value:float ->
  threshold:float ->
  ?severity:string ->
  unit ->
  entry
(** [severity] defaults to ["warn"]. *)

val to_json : entry -> Educhip_obs.Jsonout.t

val of_json : Educhip_obs.Jsonout.t -> entry option
(** Tolerant: missing or mistyped optionals default (ints must be
    [Int], floats [Int] or [Float]), unknown members land in [extra];
    [None] only when the line is not an object, lacks a usable [rule],
    or carries an unrecognized [state]. *)

val append : path:string -> entry -> unit
val load : path:string -> entry list
(** Entries in file order; unparseable lines, and lines {!of_json}
    rejects, are skipped. Missing file is an empty log. *)
