(** Per-step incremental flow cache.

    Wires the {!Stepkey} chain, the {!Codec}, and the {!Store} into a
    [Flow.memo]: each stored flow step's output
    ([Flow.stored_step_names]: every step but [gds], whose layout is
    rebuilt from the routing state) is stored content-addressed by
    [H(step, config slice, fault slice, upstream key)], so

    - an RTL or config edit reruns only the steps at and below the first
      changed key — the warm prefix replays from snapshots;
    - structurally identical subdesigns dedupe across tenants, campaigns,
      and [eduserved] replicas pointed at one store directory;
    - a warm run is bit-identical to a cold run in everything but
      wall-clock (replayed steps carry their original reports and exec
      records, including the originally paid wall times).

    The whole-job cache ([Educhip_sched.Cache]) remains the fast path
    for a fully unchanged job; this store makes the {e partially}
    changed job cheap. *)

val version : string
(** {!Stepkey.version} — the schema/derivation version folded into every
    content key. *)

val memo :
  store:Store.t ->
  netlist:Educhip_netlist.Netlist.t ->
  cfg:Educhip_flow.Flow.config ->
  inject:Educhip_fault.Fault.plan ->
  fault_seed:int ->
  retries:int ->
  Educhip_flow.Flow.memo
(** Build the memoization hook for one run of [netlist] under [cfg] with
    the given fault configuration. Probes restore snapshots (quarantining
    entries that pass their checksum but fail to decode); saves serialize
    and store freshly computed steps. *)

val warm_prefix :
  store:Store.t ->
  netlist:Educhip_netlist.Netlist.t ->
  cfg:Educhip_flow.Flow.config ->
  inject:Educhip_fault.Fault.plan ->
  fault_seed:int ->
  retries:int ->
  int
(** How many leading stored steps a run would replay: consecutive
    store hits from the chain's head, stopping at the first miss — the
    same rule the replay follows. Read-only ({!Store.probe}); used by
    [--dry-run] predictions. [0] = fully cold,
    [List.length Flow.stored_step_names] = every stored step replays
    (only [gds] runs live); otherwise the run resumes at
    [List.nth Flow.stored_step_names depth]. *)

val metric_names : string list
(** {!Store.metric_names}, re-exported for pre-declaration. *)
