(** Append-only JSONL run ledger.

    iEDA's experience (PAPERS.md) is that an open flow earns trust by
    continuously publishing QoR and runtime numbers; Croc's is that
    students need reproducible end-to-end runs they can {e compare}.
    This module is the persistent record both presume: every flow run
    appends one JSON object per line capturing what ran (design, node,
    preset, fault/guard configuration), what happened (verdict, retries,
    degradations, per-step wall times) and what came out (the QoR
    snapshot). [Regress] diffs records; [eduflow report/compare] reads
    them.

    The format is forward-tolerant: each record is tagged with
    {!schema_version}, unknown fields survive a read/write round trip in
    {!record.extra}, and {!load} skips lines it cannot parse instead of
    failing the whole ledger. *)

val schema_version : int
(** Version written by {!to_json}; currently [2]. Version 2 added the
    optional service-mode fields [trace_id] and [queue_wait_ms]; readers
    of either version accept records of the other ({!of_json} never
    rejects on version). *)

type step = {
  step : string;
  wall_ms : float;  (** 0 when the run was not telemetry-instrumented *)
  attempts : int;  (** guard attempts, [1] = clean first try *)
  rung : int;  (** effort-ladder rung that produced the result; [-1] = gave up *)
}

type qor = {
  cells : int;
  area_um2 : float;
  wns_ps : float;
  wirelength_um : float;
  drc_violations : int;
}

type record = {
  schema : int;
  design : string;
  node : string;
  preset : string;
  verdict : string;  (** [Flow.verdict_to_string] form: [ok], [degraded(...)], [failed(...)] *)
  total_wall_ms : float;
  injected : string list;  (** armed fault specs, [Fault.arming_to_string] form *)
  fault_seed : int option;
  max_retries : int option;
  guard_retries : int;  (** total retried attempts across all steps *)
  guard_degraded : int;  (** steps that completed below configured effort *)
  steps : step list;
  qor : qor option;  (** [None] for aborted runs *)
  trace_id : string option;
      (** request trace id (schema ≥ 2); [None] for local runs *)
  queue_wait_ms : float option;
      (** admission-to-dispatch wait (schema ≥ 2); [None] for local runs *)
  extra : (string * Jsonout.t) list;  (** unknown fields, preserved verbatim *)
}

val make :
  design:string ->
  node:string ->
  preset:string ->
  verdict:string ->
  total_wall_ms:float ->
  ?injected:string list ->
  ?fault_seed:int ->
  ?max_retries:int ->
  ?guard_retries:int ->
  ?guard_degraded:int ->
  ?steps:step list ->
  ?qor:qor ->
  ?trace_id:string ->
  ?queue_wait_ms:float ->
  unit ->
  record

val to_json : record -> Jsonout.t
(** One flat object; [extra] members are re-emitted after the known
    fields. *)

val of_json : Jsonout.t -> record
(** Tolerant decode: missing fields take neutral defaults, float fields
    accept [Int] or [Float], int fields only [Int] (the
    [Jsonout.int]/[Jsonout.float] coercions; a mistyped field takes its
    default), and unrecognized members are collected into [extra].
    @raise Failure if the value is not a JSON object. *)

val append : path:string -> record -> unit
(** Append one compact line to the ledger with {!Jsonl.append}, creating
    the file if needed: safe for concurrent writers, parallel scheduler
    workers never interleave partial lines. *)

val load : path:string -> record list
(** All parseable records, file order, read with {!Jsonl.load}. Blank,
    torn and malformed lines are skipped (an append-only ledger shared
    between tool versions must not be poisoned by one bad line). A
    missing file is an empty ledger. *)

val last : record list -> record option

val matching : design:string -> node:string -> preset:string -> record list -> record list
(** Records of the same (design, node, preset) triple — the comparable
    population for regression checks. *)
