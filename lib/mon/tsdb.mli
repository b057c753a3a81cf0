(** Fixed-capacity in-memory time-series store.

    The monitoring layer (Rec. 7's hosted hub and the cluster router's
    replica prober) needs {e trends}, not instants: a reject-rate climb or
    an SLO burn between two [eduflow top] glances is invisible in the
    point-in-time [stats]/[metrics] verbs. [Tsdb] retains a bounded
    window of history per series — a ring buffer of [(timestamp, value)]
    samples — and evaluates window functions over it.

    Like [Educhip_serve.Ratelimit], the store is {b clockless}: the
    caller supplies every timestamp ([t_ms], milliseconds on whatever
    clock it likes, as long as it is monotone per series). That keeps
    rule evaluation deterministic — the [@moncheck] gate drives
    synthetic tick times and asserts exact alert transitions.

    Series are identified by name plus a sorted label set, exactly like
    the [Obs] registry; a scraper adds a [("target", ...)] label so the
    same metric from two daemons stays two series.

    Not thread-safe: confine a [t] to one domain (the scraper's). *)

type kind = Counter | Gauge | Summary

val kind_name : kind -> string
(** ["counter"] / ["gauge"] / ["summary"]. *)

val kind_of_name : string -> kind option

type t
type series

val create : ?capacity:int -> unit -> t
(** A store whose series each retain the last [capacity] samples
    (default 512, at least 2 — window functions need sample pairs).
    @raise Invalid_argument on [capacity < 2]. *)

val capacity : t -> int

val record : t -> ?labels:(string * string) list -> kind:kind -> t_ms:float -> string -> float -> bool
(** [record t ~kind ~t_ms name v] appends a sample, creating the series
    on first use (first writer wins on [kind]). Returns [false] — and
    records nothing — when [t_ms] is older than the newest retained
    sample or [v] is not finite; such drops are counted per series
    ({!dropped}). Equal timestamps are accepted (last write at an
    instant wins for [value_at]). When the ring is full the oldest
    sample is evicted ({!evicted}). *)

val find : t -> ?labels:(string * string) list -> string -> series option
(** Exact name + label-set lookup (label order is irrelevant). *)

val show_labels : ?cell:bool -> (string * string) list -> string
(** A label set as printed after a series or alert name:
    [{k=v,...}], or [""] when empty. With [~cell:true], the form for a
    table cell: [k=v,...], or [-] when empty. *)

val select : t -> ?where:(string * string) list -> string -> series list
(** All series named [name] whose labels are a {e superset} of [where],
    in creation order — how a rule like
    [serve_rejected{reason=rate_limited}] matches one instance per
    scraped target. *)

val series_list : t -> series list
(** Every series, in creation order. *)

val series_name : series -> string
val series_labels : series -> (string * string) list
(** Sorted, as stored. *)

val series_kind : series -> kind

val length : series -> int
val evicted : series -> int
val dropped : series -> int

val samples : series -> (float * float) list
(** Retained [(t_ms, value)] pairs, oldest first. *)

val last : series -> (float * float) option
(** The newest sample. *)

(** {1 Window functions}

    Each evaluates over the half-open window [(now_ms - window_ms,
    now_ms]] and returns [None] when no retained sample falls inside it
    (an empty window is "no data", which rules treat as
    condition-false — distinct from a legitimate 0).

    [delta] and [rate] work on {e consecutive sample pairs}, and a pair
    is attributed to the window containing its {b later} sample — so
    every increment belongs to exactly one window and
    [delta w1 + delta w2 = delta (w1 ∪ w2)] holds exactly for adjacent
    windows (the additivity the qcheck suite pins down, and the same
    definition [Obs.snapshot_diff] uses for two snapshots). *)

val value_at : series -> t_ms:float -> float option
(** The newest sample at or before [t_ms]. *)

val delta : series -> window_ms:float -> now_ms:float -> float option
(** Sum of [v_next - v_prev] over pairs in the window: the net change.
    A window holding one sample (no pair) is [Some 0.]. *)

val rate : series -> window_ms:float -> now_ms:float -> float option
(** Per-second increase: sum of [max 0. (v_next - v_prev)] over pairs
    in the window, divided by [window_ms / 1000.]. Clamping each
    increment makes a counter reset (daemon restart) read as 0, not a
    huge negative — so the rate of a monotone counter is non-negative
    by construction. *)

val avg : series -> window_ms:float -> now_ms:float -> float option
val max_ : series -> window_ms:float -> now_ms:float -> float option
val min_ : series -> window_ms:float -> now_ms:float -> float option

val quantile : series -> q:float -> window_ms:float -> now_ms:float -> float option
(** Windowed quantile of the sample {e values}, [q] in [[0, 1]] —
    e.g. the p99 of recorded p99 gauges. @raise Invalid_argument on a
    [q] outside [[0, 1]]. *)

val to_json : t -> Educhip_obs.Jsonout.t
(** History dump: [{schema; capacity; series: [{name; labels; kind;
    evicted; dropped; samples: [[t_ms, v], ...]}]}] — what [eduflow mon
    --history] writes. *)

val schema_version : int
(** Version of the {!to_json} dump shape; currently [1]. *)
