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

(** Hash tables keyed by predicates, with {!Brdb_storage.Predicate.hash}
    in place of the polymorphic hash. *)
module Predicate_tbl : Hashtbl.S with type key = Brdb_storage.Predicate.t

(** One table's read set: the vids of the versions a transaction read in
    that table, as an unboxed growable buffer (DESIGN.md §9, "Read sets").
    Execution appends, dropping a repeat of the last vid on the spot;
    {!seal} sorts it and drops the other duplicates, and a consumer that
    iterates an unsealed set seals it first. *)
type reads

type t = {
  txid : int;  (** node-local transaction id (xmin/xmax domain) *)
  tracked : bool;  (** records SSI reads/predicates; false for {!reader} *)
  global_id : string;  (** client-supplied unique identifier *)
  client : string;  (** submitting user, for the ledger *)
  description : string;  (** contract invocation, for the ledger *)
  snapshot_height : int;
  mutable reads : reads list;  (** one read set per table read *)
  mutable predicates : Brdb_storage.Predicate.t list;
      (** newest first, each at its first recording (the order
          {!Manager.check_stale_phantom} reports the first hit in) *)
  mutable predicates_seen : unit Predicate_tbl.t option;
      (** dedup set for [predicates], created at the first one, hashed by
          {!Brdb_storage.Predicate.hash} *)
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

(** [create] allocates the record only: the read sets and the predicate
    dedup set appear with the first read or predicate recorded. *)
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

(** [reads_of t ~table] is [table]'s read set, created on first use; a
    scan asks once and records each row into it. For an untracked
    transaction it is a shared set that records nothing. *)
val reads_of : t -> table:string -> reads

(** [record_read r vid] adds [vid] to the read set [r]. *)
val record_read : reads -> int -> unit

(** [seal t] sorts each of [t]'s read sets, drops its duplicates and trims
    its buffer. [Node_core] seals a transaction when its contract returns,
    so the sets wait for their block without slack. *)
val seal : t -> unit

val reads_table : reads -> string

(** The read set's vids, ascending. *)
val iter_vids : (int -> unit) -> reads -> unit

val exists_vid : (int -> bool) -> reads -> bool

(** [record_predicate t p] adds [p] unless [t] recorded an equal one. *)
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
