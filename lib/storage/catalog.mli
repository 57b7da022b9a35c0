(** The database catalog: named tables plus registered [sys.*] virtual
    tables.

    Includes the [pgledger] system table (created at startup) so that
    provenance queries can join user tables with transaction metadata in
    plain SQL, as in Table 3 of the paper.

    Virtual tables (the §5-style introspection views, DESIGN.md §10) are
    read-only row providers materialized on demand at a snapshot height:
    the provider must be a pure function of (block stream, contract
    registry) state at that height so results are byte-identical across
    nodes for equal seeds. *)

type t

(** Name of the ledger system table. *)
val ledger_table : string

(** [is_sys_name n] — [n] lives in the reserved read-only [sys.] schema. *)
val is_sys_name : string -> bool

(** Columns of [pgledger]: txid INT PRIMARY KEY, gid TEXT, blocknumber INT,
    txuser TEXT, txquery TEXT, status TEXT, committime INT. *)
val create : unit -> t

val find : t -> string -> Table.t option

val mem : t -> string -> bool

val table_names : t -> string list

(** [create_table t schema] — [Error] when the name is taken or in the
    [sys.] schema. *)
val create_table : t -> Schema.t -> (Table.t, string) result

(** [drop_table t name] — system tables (pgledger and the [sys.] schema)
    cannot be dropped. *)
val drop_table : t -> string -> (unit, string) result

(** {2 Virtual tables} *)

(** A view column over rows of type ['a]: its name, SQL type, primary-key
    flag and the cell it reads from a row, stated once. *)
type 'a column

val int : ?pk:bool -> string -> ('a -> int) -> 'a column

val float : ?pk:bool -> string -> ('a -> float) -> 'a column

val text : ?pk:bool -> string -> ('a -> string) -> 'a column

val bool : ?pk:bool -> string -> ('a -> bool) -> 'a column

(** [register_virtual t ~name columns rows] installs (or replaces) a
    read-only view. The schema is [columns] in order; [rows ~height] must
    return the view's rows as seen at committed block [height], already in
    the view's canonical order, and each row renders as one cell per
    column — so a row's arity and cell types always match the schema.
    Raises [Invalid_argument] when [name] is not a [sys.*] name or the
    columns are invalid. *)
val register_virtual :
  t -> name:string -> 'a column list -> (height:int -> 'a list) -> unit

type virtual_table = {
  v_schema : Schema.t;
  v_rows : height:int -> Value.t array list;
}

val find_virtual : t -> string -> virtual_table option

(** Registered view names, sorted (deterministic). *)
val virtual_names : t -> string list

val virtual_schema : t -> string -> Schema.t option

(** Re-attach a table object (recovery / DDL abort undo). *)
val restore_table : t -> Table.t -> unit

(** [reset t] drops every real table and recreates an empty [pgledger],
    as on a fresh catalog; virtual-table registrations are untouched.
    Used when recovery finds a half-installed snapshot (DESIGN.md §11)
    and must return the node to a clean bootstrap slate. *)
val reset : t -> unit

(** [swap_tables t tables] replaces the whole set of real tables in one
    step (snapshot install, DESIGN.md §11). Virtual-table registrations
    are untouched — their providers read through the catalog at query
    time. Raises [Invalid_argument] when [tables] lacks [pgledger]. *)
val swap_tables : t -> Table.t list -> unit
