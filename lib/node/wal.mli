(** The "default transaction log" of §3.6: a durable record of each
    transaction's final status, written at commit/abort time — strictly
    before the ledger table's status step. Recovery compares this log
    against the ledger table to decide which of the two atomic steps of
    block processing completed. *)

type status = Committed | Aborted of Brdb_txn.Txn.abort_reason

type t

val create : unit -> t

val append : t -> txid:int -> height:int -> status -> unit

val find : t -> txid:int -> status option

(** Drop the records of a block (recovery rollback re-executes it). *)
val erase_block : t -> height:int -> unit

(** {2 Snapshot support (DESIGN.md §11)}

    A snapshot install replaces node state in several steps; the install
    marker brackets them so a crash mid-install is distinguishable from a
    §3.6 mid-block crash. Recovery sees the marker and resets the node to
    a clean slate before fetching the snapshot again. *)

val begin_install : t -> height:int -> unit

val complete_install : t -> unit

(** Height of the snapshot whose install was interrupted, if any. *)
val installing : t -> int option

(** Records of blocks strictly above [above], sorted by txid — the "WAL
    tail" a snapshot carries so §3.6 recovery works right after install. *)
val export : t -> above:int -> (int * int * status) list

(** Replace the log's contents wholesale (clears any install marker). *)
val restore : t -> (int * int * status) list -> unit
