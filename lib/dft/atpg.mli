(** Automatic test-pattern generation for single stuck-at faults.

    Completes the DFT story: {!Dft} gives scan access to the state, this
    module generates the vectors a manufacturing test would shift in.
    Registers are treated as scan-controllable/observable cut points, so
    the problem is combinational: a pattern assigns every primary input
    and every register (Q value); detection is observed at primary
    outputs and register D pins.

    The engine is the classical two-phase one:

    + {b fault simulation} — 62 random patterns at a time, one per bit
      of {!Educhip_sim.Sim}'s words; each fault is forced and only its
      fanout cone re-evaluated, and it is detected when its forced value
      propagates to an observable under some pattern;
    + {b SAT ATPG} — for each fault random simulation missed, a
      good-vs-faulty miter is solved; SAT yields a directed pattern,
      UNSAT proves the fault untestable (redundant logic).

    Coverage = detected / (total − untestable). *)

type fault = {
  fault_net : Educhip_netlist.Netlist.cell_id;  (** driving cell of the net *)
  stuck_at : bool;
}

type pattern = {
  assignment : (Educhip_netlist.Netlist.cell_id * bool) list;
      (** value per pseudo-input (primary inputs and register Qs) *)
  detects : fault list;  (** faults this pattern was credited with *)
}

type report = {
  total_faults : int;
  detected_random : int;
  detected_sat : int;
  untestable : int;  (** proven undetectable — redundant logic *)
  aborted : int;
      (** SAT effort budget exhausted before a verdict (industrial ATPG's
          "aborted faults"); counted as undetected in the coverage *)
  coverage : float;
      (** detected / (total − untestable), 1.0 if nothing is testable *)
  patterns : pattern list;
}

val enumerate_faults : Educhip_netlist.Netlist.t -> fault list
(** Both polarities on every signal-carrying net (inputs, gates,
    register outputs); output markers and constants are excluded. *)

val run :
  ?random_patterns:int ->
  ?seed:int ->
  ?sat_conflict_limit:int ->
  Educhip_netlist.Netlist.t ->
  report
(** Defaults: 256 random patterns, seed 1, 20k conflicts of SAT effort
    per fault.
    @raise Invalid_argument if the netlist fails validation. *)

val detects : Educhip_netlist.Netlist.t -> pattern -> fault -> bool
(** Replay check: does the pattern distinguish the faulty circuit from the
    good one at some observable? (Used by the test suite to validate
    generated patterns.) [detects netlist] builds the simulator, fanout
    graph and observables once; apply it once per netlist and reuse the
    closure, which computes each fault's cone and re-simulates the good
    circuit only when the pattern changes. *)

val pp_report : Format.formatter -> report -> unit
