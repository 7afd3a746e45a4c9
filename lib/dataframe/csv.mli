(** Minimal RFC-4180-ish CSV reader/writer. *)

(** [line] is the physical line (1-based) a ragged record starts on, or
    the last line of input for an unterminated quoted field. *)
exception Parse_error of { line : int; message : string }

(** Split raw CSV text into records of fields (quotes, embedded commas,
    doubled quotes, LF/CRLF). *)
val parse_string : string -> string list list

(** Parse CSV text into a dataframe in one pass, each cell through
    {!Value.of_raw} (run once per distinct raw field of a column). The
    frame equals {!Frame.of_rows} over the sniffed rows: codes and
    dictionaries in first-occurrence order by value. Column kinds are
    sniffed: all-numeric high-cardinality columns become [Numeric],
    everything else [Categorical]. Raises {!Parse_error} on malformed
    input and [Invalid_argument] on empty input. *)
val of_string : ?header:bool -> string -> Frame.t

val load : ?header:bool -> string -> Frame.t

(** Finite floats are written with the fewest digits (15 to 17) that
    read back to the same bits. *)
val to_string : Frame.t -> string
val save : Frame.t -> string -> unit

(** Quote one field for CSV output (RFC-4180 doubling rules). *)
val escape_field : string -> string
