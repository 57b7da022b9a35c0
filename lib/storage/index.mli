(** Ordered secondary index: column value -> set of version ids.

    Backed by a balanced map over {!Value.compare_total}; supports point
    and range scans. Entries are added when versions are created (even
    before commit) — scans filter by MVCC visibility, exactly as index
    scans do over PostgreSQL heaps. *)

type t

type bound = Unbounded | Incl of Value.t | Excl of Value.t

val create : column:int -> t

(** Column position this index covers. *)
val column : t -> int

val add : t -> Value.t -> int -> unit

val remove : t -> Value.t -> int -> unit

(** [iter_range t ~lo ~hi f] calls [f vid] for every entry with key in the
    given bounds, in key order (ties in vid order). *)
val iter_range : t -> lo:bound -> hi:bound -> (int -> unit) -> unit
