(** CNF satisfiability solver.

    A compact DPLL solver with two-watched-literal unit propagation,
    activity-based (VSIDS-style) decision ordering, and conflict-driven
    restarts — enough to discharge the combinational-equivalence
    obligations of {!Cec} on this repository's designs in milliseconds.

    Variables are positive integers; a literal is [+v] or [-v] (DIMACS
    convention). *)

type t

type result = Sat of bool array | Unsat | Unknown
(** [Sat model]: [model.(v)] is the value of variable [v] (index 0
    unused). [Unknown] is only returned when a [conflict_limit] was given
    and exhausted. *)

val create : unit -> t

val fresh_var : t -> int
(** Allocate the next variable (1-based). *)

val var_count : t -> int

val add_clause : t -> int list -> unit
(** Add a disjunction of literals. The empty clause makes the instance
    trivially unsatisfiable.
    @raise Invalid_argument on a literal whose variable was never
    allocated. *)

val solve : ?assumptions:int list -> ?conflict_limit:int -> t -> result
(** Decide satisfiability under optional assumption literals. The solver
    may be re-solved with different assumptions; clauses persist.
    [conflict_limit] bounds the search effort: when the budget is spent
    the answer is [Unknown] (the ATPG abort mechanism). *)

val check_model : t -> bool array -> bool
(** Does the assignment satisfy every clause added so far? (Debugging and
    test-oracle helper.) *)

(** {1 Search statistics} *)

type stats = { decisions : int; conflicts : int; propagations : int; restarts : int }
(** Cumulative over the solver's lifetime (re-solving accumulates).
    [propagations] counts literals propagated, not propagate calls. *)

val stats : t -> stats

val metric_names : string list
(** The counter families {!solve} reports to [Educhip_obs.Obs] (the
    per-solve deltas of {!stats}); exposed so orchestrators can declare
    them up front. *)

val fault_sites : string list
(** [Educhip_fault] probe sites inside this kernel: ["sat.solve"]
    (probed at the head of {!solve}; a [Corrupt] arming returns
    [Unknown], the same inconclusive answer as a conflict-limit hit). *)

(** {1 Convenience constraints} *)

val add_and : t -> int -> int -> int -> unit
(** [add_and s out a b]: clauses for [out <-> a AND b] (inputs are
    literals, [out] a variable). *)

val add_xor : t -> int -> int -> int -> unit
(** [out <-> a XOR b]. *)

val add_equiv : t -> int -> int -> unit
(** Force two literals equal. *)

val add_cell :
  t ->
  (Educhip_netlist.Netlist.cell_id -> int) ->
  Educhip_netlist.Netlist.cell_id ->
  Educhip_netlist.Netlist.cell ->
  unit
(** [add_cell s var_of id cell]: [cell]'s function over the variables
    [var_of] gives [id] and its fanins — the gate-to-CNF encoder of BMC
    and ATPG. Inputs and registers add nothing. *)
