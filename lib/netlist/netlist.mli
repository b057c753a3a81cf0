(** Gate-level netlist intermediate representation.

    A netlist is a flat graph of cells. Every cell drives exactly one net,
    so nets are identified with the id of their driving cell: the pair
    (cell table, fanin ids) fully describes connectivity. This is the
    representation produced by RTL elaboration, transformed by synthesis,
    and consumed by placement, routing, timing, power, and simulation.

    Combinational cells must form a DAG; cycles are only legal through
    [Dff] cells (checked by {!validate}). *)

type cell_id = int
(** Index into the netlist's cell table; also the id of the driven net. *)

type kind =
  | Input  (** primary input; no fanins *)
  | Output  (** primary output marker; one fanin, drives nothing else *)
  | Const of bool  (** constant 0/1 driver *)
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Xnor
  | Mux  (** fanins [|sel; a; b|]: [sel ? b : a] *)
  | Dff  (** D flip-flop, one fanin (D); posedge of the implicit clock; resets to 0 *)
  | Mapped of mapped  (** technology-mapped combinational cell *)

and mapped = {
  cell_name : string;  (** PDK library cell, e.g. ["NAND2_X1"] *)
  arity : int;  (** number of logic inputs, 1..6 *)
  table : int;  (** truth table: bit [i] is the output for input valuation [i] *)
}

type cell = { kind : kind; label : string; fanins : cell_id array }

type t
(** Mutable netlist under construction; structurally immutable cells. *)

val create : name:string -> t

val name : t -> string

(** {1 Construction} *)

val add_input : t -> label:string -> cell_id

val add_const : t -> bool -> cell_id

val add_gate : t -> kind -> cell_id array -> cell_id
(** [add_gate t kind fanins] appends a cell.
    @raise Invalid_argument if the fanin count does not match the kind's
    arity, if a fanin id is out of range, or if [kind] is [Input], [Output],
    or [Const] (use the dedicated constructors). *)

val add_dff : t -> d:cell_id -> cell_id

val add_dff_floating : t -> cell_id
(** A flip-flop whose D input is not yet connected — the forward reference
    needed for feedback loops (counters, FSMs). The netlist is invalid
    until {!connect_dff} is called on it. *)

val connect_dff : t -> cell_id -> d:cell_id -> unit
(** Connect the D pin of a floating flip-flop.
    @raise Invalid_argument if the cell is not a floating [Dff]. *)

val set_kind : t -> cell_id -> kind -> unit
(** Replace a combinational cell's kind in place, keeping its fanins —
    the primitive behind gate sizing (e.g. [NAND2_X1 → NAND2_X2]).
    @raise Invalid_argument if either the old or new kind is not
    combinational, or if the arities differ. *)

val set_fanin : t -> cell_id -> pin:int -> cell_id -> unit
(** Redirect one fanin pin to a different driver — the primitive behind
    fanout buffering. The caller is responsible for not creating
    combinational cycles ({!validate} re-checks).
    @raise Invalid_argument on a bad pin index or out-of-range driver. *)

val add_output : t -> label:string -> cell_id -> cell_id
(** Mark a net as a primary output under the given label. *)

(** {1 Access} *)

val cell_count : t -> int

val cell : t -> cell_id -> cell

val kind : t -> cell_id -> kind

val label : t -> cell_id -> string

val fanins : t -> cell_id -> cell_id array

val inputs : t -> cell_id list
(** Primary inputs in creation order. *)

val outputs : t -> cell_id list
(** Output-marker cells in creation order. *)

val dffs : t -> cell_id list
(** All flip-flops in creation order. *)

val fanout_counts : t -> int array
(** [counts.(i)] is how many cell fanin slots reference net [i]. *)

val iter_cells : t -> (cell_id -> cell -> unit) -> unit

(** {1 Analysis} *)

val kind_arity : kind -> int
(** Fanin count required by a kind. [Input]/[Const] are 0; [Output] is 1. *)

val is_combinational : kind -> bool
(** True for logic cells, [Buf], and [Mapped]; false for [Input], [Output],
    [Const], and [Dff]. *)

val gate_count : t -> int
(** Number of combinational logic cells (excludes inputs, outputs, consts,
    buffers are counted, DFFs excluded). *)

val count_by_kind : t -> (string * int) list
(** Cell census keyed by a printable kind name, sorted by name. *)

val logic_depth : t -> int
(** Longest combinational path (in cells) between sequential boundaries
    (inputs/DFF outputs to outputs/DFF inputs). 0 for purely sequential or
    empty netlists.
    @raise Invalid_argument if a combinational cycle exists. *)

val combinational_topo_order : t -> cell_id array
(** Topological order of all cells treating DFF outputs as sources
    (the DFF D-input edge is cut).
    @raise Invalid_argument if a combinational cycle exists. *)

type violation =
  | Arity_mismatch of cell_id
  | Dangling_fanin of cell_id * cell_id
  | Combinational_cycle of cell_id list
  | Output_without_driver of cell_id

val pp_violation : Format.formatter -> violation -> unit

val validate : t -> violation list
(** Structural sanity check; the empty list means the netlist is sound. *)

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph census used in flow reports. *)

val kind_name : kind -> string

val kind_table : kind -> (int * int) option
(** [(arity, truth table)] of a combinational kind — bit [i] of the table
    is the output when fanin [j] carries bit [j] of [i]. The one statement
    of gate semantics: the simulator (and through it power, scan, fault
    simulation and counterexample replay) and every SAT encoder evaluate
    gates from it, so they cannot drift apart. [None] for [Input],
    [Output], [Const], and [Dff]. *)

val restore : name:string -> cell array -> t
(** Rebuild a netlist from its cell table — the inverse of dumping every
    cell via {!iter_cells}. Cell ids are positional, so the array fully
    determines the graph; input/output/dff orderings are recomputed in id
    order (creation order for netlists built through the constructors).
    The display [name] is supplied by the caller because content-addressed
    snapshots deliberately exclude it (see {!structural_digest}).
    @raise Invalid_argument on an arity mismatch or out-of-range fanin. *)

val structural_digest : t -> string
(** Hex digest of the netlist's canonical structural form: every cell's
    kind (including mapped-cell truth tables), fanins, and port labels —
    but {e not} the netlist's display name, so structurally identical
    designs hash equal. The key ingredient of the scheduler's
    content-addressed result cache: any change that could alter flow
    results changes the digest. *)
