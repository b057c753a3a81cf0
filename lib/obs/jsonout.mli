(** Minimal JSON tree, emitter, and parser.

    The observability layer must not pull a JSON dependency into every
    library that links against it, so this is a small hand-rolled value
    type with a serializer (string escaping per RFC 8259, non-finite
    floats emitted as [null]) and a strict recursive-descent parser used
    by the test suite and the CLI smoke checks to validate emitted files.

    Numbers: integers print without a decimal point and parse to {!Int};
    every other number prints/parses as {!Float} (integer-valued floats
    are printed as e.g. [5.0] so the distinction survives a round trip). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members, in order; keys are not deduplicated *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. [pretty] (default [false]) adds newlines and two-space
    indentation; both forms are valid JSON. *)

val write_file : path:string -> t -> unit
(** [to_string ~pretty:true] plus a trailing newline, written atomically
    enough for our purposes (single [output_string]). *)

val of_string : string -> t
(** Strict parse of a complete JSON document.
    @raise Failure with a position-annotated message on malformed input
    or trailing garbage. *)

val member : string -> t -> t option
(** First member of an {!Obj} with the given key; [None] on other
    constructors or a missing key. *)

(** {1 Typed field access}

    The one set of coercions every decoder in the tree uses. A coercion
    is [None] on any other constructor; it never truncates, parses a
    string, or reads [null] as a number. *)

val as_int : t -> int option
(** {!Int} only — a {!Float} is not an int, even when integer-valued. *)

val as_float : t -> float option
(** {!Float}, or an {!Int} widened. *)

val as_string : t -> string option
val as_bool : t -> bool option

val int : string -> t -> int option
(** [int k j] is {!as_int} of member [k] of [j]; [None] when [j] is not
    an object, [k] is missing, or the member has another type. The
    same holds for {!float}, {!string} and {!bool}. *)

val float : string -> t -> float option
val string : string -> t -> string option
val bool : string -> t -> bool option

val escape_string : string -> string
(** The quoted, escaped form of a string (including the surrounding
    double quotes) — exposed for tests. *)
