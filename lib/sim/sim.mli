(** Levelized cycle-based netlist simulator.

    Evaluates a {!Educhip_netlist.Netlist.t} — primitive gates or
    technology-mapped cells alike — one clock cycle at a time. {!create}
    compiles the netlist once: every combinational cell becomes its
    {!Educhip_netlist.Netlist.kind_table} truth table, evaluated in a
    precomputed topological order as a mux tree over constant masks. Each
    net carries an [int] word and gates act lane-wise, so one sweep can
    evaluate one pattern per bit (the {!section-words} access, used by
    fault simulation); the bit-level API drives and reads words of all
    zeros or all ones. Flip-flops update atomically on {!step}, and all
    registers reset to zero. This is the reference model used to check
    that synthesis and technology mapping preserve design semantics, and
    the one gate evaluator behind power estimation, scan, fault
    simulation, counterexample replay and the testbench driver.

    Buses follow the RTL labelling convention: a multi-bit port [x] appears
    as inputs/outputs labelled [x\[0\]], [x\[1\]], … *)

type t

val create : Educhip_netlist.Netlist.t -> t
(** Build a simulator. Registers start at zero, inputs at zero.
    @raise Invalid_argument if the netlist has a combinational cycle. *)

val netlist : t -> Educhip_netlist.Netlist.t

val reset : t -> unit
(** Zero all registers and inputs. *)

(** {1 Bit-level access} *)

val set_input : t -> Educhip_netlist.Netlist.cell_id -> bool -> unit
(** @raise Invalid_argument if the cell is not a primary input. *)

val value : t -> Educhip_netlist.Netlist.cell_id -> bool
(** Current value of any net (valid after {!eval} or {!step}). *)

(** {1 Bus-level access} *)

val input_bus : t -> string -> Educhip_netlist.Netlist.cell_id array
(** LSB-first cell ids of the named input bus ([x] or [x\[i\]] labels).
    @raise Not_found if no input carries the name. *)

val output_bus : t -> string -> Educhip_netlist.Netlist.cell_id array
(** LSB-first output-marker ids of the named output bus.
    @raise Not_found if no output carries the name. *)

val set_bus : t -> string -> int -> unit
(** Drive an input bus with an unsigned integer (truncated to its width). *)

val read_bus : t -> string -> int
(** Read an output bus as an unsigned integer (bus width must be ≤ 62). *)

(** {1:words Word-level access}

    One pattern per bit of an [int] word (63 lanes). The scalar functions
    above read lane 0. *)

val set_word : t -> Educhip_netlist.Netlist.cell_id -> int -> unit
(** Drive a primary input, or load a flip-flop's state (published by the
    next {!eval}), with a word of patterns.
    @raise Invalid_argument for any other cell. *)

val word : t -> Educhip_netlist.Netlist.cell_id -> int
(** Current word of any net. *)

val force : t -> Educhip_netlist.Netlist.cell_id -> int -> unit
(** Overwrite a net's current word — a stuck-at fault, or its repair.
    Nothing is re-evaluated. *)

val eval_cells : t -> Educhip_netlist.Netlist.cell_id array -> unit
(** Re-evaluate the given cells from the current words, in array order
    (e.g. a fault's fanout cone, topologically sorted). Inputs and
    flip-flops in the array are left as they are. *)

(** {1 Evaluation} *)

val eval : t -> unit
(** Propagate the current inputs and register state through the
    combinational logic (no clock edge). *)

val step : t -> unit
(** [eval] then clock all flip-flops once. *)

val run_cycles : t -> int -> unit
(** [step] repeated. *)

(** {1 Testbench} *)

type trace = { cycle : int; values : (string * int) list }

val run_testbench :
  t -> stimuli:(string * int) list list -> watch:string list -> trace list
(** Apply one stimulus alist per cycle (bus name → value), step, and record
    the watched output buses after each edge. *)
