(** A transaction: identity, snapshot, and the read/write/predicate sets
    that drive SSI.

    Transactions execute against a snapshot identified by a block height
    (OE transactions always use the previous block's height; EO
    transactions carry a client-chosen [snapshot_height], §3.4.1). All
    writes are physically materialized in the heap as uncommitted
    versions; {!Manager} later commits or aborts them. *)

type abort_reason =
  | Ssi_conflict of string  (** which rule fired, for diagnostics *)
  | Ww_conflict of int  (** lost update; argument is the winning txid *)
  | Stale_read
  | Phantom_read
  | Duplicate_key of string
  | Duplicate_txid
  | Missing_index of string
  | Blind_update of string
  | Contract_error of string
  | Update_conflict_on_deploy
      (** contract replaced while the transaction was in flight (§3.7) *)

val abort_reason_to_string : abort_reason -> string

(** Canonical round-tripping codec for snapshot serialization
    (DESIGN.md §11); unlike {!abort_reason_to_string} it is injective. *)
val abort_reason_encode : abort_reason -> string

val abort_reason_decode : string -> abort_reason option

type status = Pending | Committed of int  (** commit block *) | Aborted of abort_reason

type write =
  | W_insert of { table : string; vid : int }
  | W_update of { table : string; old_vid : int; new_vid : int }
  | W_delete of { table : string; old_vid : int }

type ddl =
  | D_created_table of string
  | D_dropped_table of Brdb_storage.Table.t
  | D_created_index of { table : string; column : int }

type t = {
  txid : int;  (** node-local transaction id (xmin/xmax domain) *)
  tracked : bool;  (** records SSI reads/predicates; false for {!reader} *)
  global_id : string;  (** client-supplied unique identifier *)
  client : string;  (** submitting user, for the ledger *)
  description : string;  (** contract invocation, for the ledger *)
  snapshot_height : int;
  mutable reads : (string * int) list;
  reads_seen : (string * int, unit) Hashtbl.t;  (** dedup set for [reads] *)
  mutable predicates : Brdb_storage.Predicate.t list;
  predicates_seen : (Brdb_storage.Predicate.t, unit) Hashtbl.t;
      (** dedup set for [predicates] *)
  mutable writes : write list;  (** newest first *)
  mutable ddl : ddl list;  (** newest first *)
  mutable status : status;
  mutable marked : abort_reason option;
      (** abort decided but not yet materialized *)
  mutable block : int option;  (** block height once ordered *)
  mutable block_pos : int option;  (** position within the block *)
  mutable on_commit : (unit -> unit) list;
      (** side effects applied after a successful commit (e.g. contract
          deployment taking effect) *)
}

val create :
  txid:int ->
  global_id:string ->
  client:string ->
  ?description:string ->
  snapshot_height:int ->
  unit ->
  t

(** [reader ~snapshot_height] — a SELECT-only view of the committed state
    at [snapshot_height]. Every transaction at or below it is decided (a
    safe snapshot, Ports & Grittner), so the reader records nothing for
    SSI, is never registered with a {!Manager}, and has a txid the
    Manager never issues. *)
val reader : snapshot_height:int -> t

val record_read : t -> table:string -> vid:int -> unit

val record_predicate : t -> Brdb_storage.Predicate.t -> unit

val record_write : t -> write -> unit

val record_ddl : t -> ddl -> unit

(** [mark_abort t reason] is first-decision-wins: later marks do not
    override an earlier reason (keeps victims deterministic). *)
val mark_abort : t -> abort_reason -> unit

val is_pending : t -> bool

(** Writes in execution order (oldest first). *)
val writes_in_order : t -> write list

(** Version ids this transaction claimed for update/delete, with tables. *)
val claimed : t -> (string * int) list

(** New version ids this transaction created, with tables. *)
val created : t -> (string * int) list

val add_on_commit : t -> (unit -> unit) -> unit
