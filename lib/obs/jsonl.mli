(** Append-only JSON-lines files: the run ledger ({!Runlog}) and the
    monitor's alert log both live on this.

    {!append} is safe for concurrent writers: the whole line is built in
    memory and written with one flushed [output_string] into an
    [O_APPEND] descriptor, under a process-wide mutex, so parallel
    workers in one process never split a line across two buffer flushes
    and writers in different processes never interleave inside a line.
    {!load} is tolerant: a log shared between tool versions, or one whose
    last write was cut short, must not be poisoned by one bad line. *)

val append : path:string -> Jsonout.t -> unit
(** Append the compact form of the value and a newline, creating the
    file (mode [0o644]) if needed. *)

val load : path:string -> decode:(Jsonout.t -> 'a option) -> 'a list
(** Every line that parses and decodes to [Some], in file order. Blank
    lines, torn or malformed lines, lines [decode] maps to [None] and
    lines on which it raises [Failure] are skipped. A missing file is an
    empty log. *)
