(** Bounded model checking with simple k-induction.

    Verifies safety properties of sequential netlists: a {e property} is a
    one-bit primary output that must be 1 on every cycle. The design is
    unrolled into SAT timeframes:

    - {b base case (BMC)}: from the all-zero reset state, is there an
      input sequence of length ≤ [depth] driving the property to 0? SAT
      yields a concrete counterexample trace; UNSAT means the property
      holds within the bound.
    - {b induction step} (optional): from an {e arbitrary} state, if the
      property held for [depth] consecutive steps, does it hold on the
      next? UNSAT upgrades the verdict to a proof for all time; SAT only
      means induction at this depth is inconclusive (the pre-states may be
      unreachable), so the bounded verdict stands.

    This is the assertion-checking companion to {!Educhip_cec.Cec}: CEC
    compares two circuits, BMC checks one circuit against an embedded
    monitor. *)

type trace = {
  length : int;  (** cycles until the violation, inclusive *)
  steps : (string * bool) list array;
      (** per-cycle primary-input assignment, index 0 = first cycle *)
}

type verdict =
  | Proved of int  (** by induction at this depth *)
  | Holds_bounded of int  (** no violation within the bound *)
  | Violated of trace

val check :
  Educhip_netlist.Netlist.t ->
  property:string ->
  depth:int ->
  ?induction:bool ->
  unit ->
  verdict
(** [check netlist ~property ~depth ()] — [property] names a one-bit
    output; [induction] defaults to true.
    @raise Invalid_argument if the output does not exist, is not one bit,
    or [depth < 1]; if the netlist fails validation; or if the solver
    returns a model that fails the final consistency check. *)

val replay : Educhip_netlist.Netlist.t -> property:string -> trace -> bool
(** Confirm a counterexample on {!Educhip_sim.Sim}: from reset, drive each
    cycle's inputs by label (a missing one is false) and clock; [true] when
    the property output is 0 on the trace's final cycle. *)

val pp_verdict : Format.formatter -> verdict -> unit
