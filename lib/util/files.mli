(** Filesystem scraps shared by the stores, the chaos harness, the
    benches and the smoke checks. *)

val read_file : string -> string option
(** The whole file, bytes as on disk; [None] if it cannot be opened or
    read. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode [0o755]). A
    directory that appears concurrently — another process sharing the
    same store root won the race — is not an error.
    @raise Sys_error if a component cannot be created. *)

val rm_rf : string -> unit
(** Remove a file or a directory tree; a missing path is a no-op. *)
