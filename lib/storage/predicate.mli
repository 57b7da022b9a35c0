(** Predicate-read descriptors (SIREAD-lock analogue).

    Every scan a transaction performs registers the *access predicate* it
    used: a column range when it went through an index, or a whole-table
    read for a sequential scan. Phantom and rw-dependency detection then
    asks whether a newly created version falls inside a registered
    predicate. Like PostgreSQL's SIREAD machinery this is conservative:
    matching the access predicate may over-approximate the query's WHERE
    clause, which can only cause false-positive aborts, never missed
    anomalies. *)

type t =
  | Full_scan of { table : string }
  | Range of {
      table : string;
      column : int;
      lo : Index.bound;
      hi : Index.bound;
    }

val table : t -> string

(** Structural equality: [equal p q] iff [compare p q = 0]. *)
val equal : t -> t -> bool

(** A hash consistent with {!equal}, specialised to the type (a
    transaction's predicate dedup set hashes each recorded predicate). *)
val hash : t -> int

(** [matches p ~table row] — does a row (by values) of [table] fall under
    the predicate? *)
val matches : t -> table:string -> Value.t array -> bool
