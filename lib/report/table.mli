(** Plain-text experiment tables, aligned for terminals, with optional
    CSV emission so figures can be re-plotted elsewhere. *)

type t

(** [create ~title ~columns] starts a table. *)
val create : title:string -> columns:string list -> t

(** [add_row t cells] appends a row; cell count must match the column
    count. *)
val add_row : t -> string list -> unit

(** [print t] writes the aligned table to stdout, and as CSV into
    [$SIMQ_CSV_DIR] when that names a directory. *)
val print : t -> unit
