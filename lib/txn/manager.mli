(** Node-local transaction manager.

    Allocates transaction ids, materializes commits/aborts in the heap,
    and implements the commit-time checks shared by both flows:
    - lost-update (first committer in block order wins, §3.3.3/§4.3);
    - uniqueness constraints against the just-committed state;
    - stale/phantom reads against blocks committed after a transaction's
      snapshot (§3.4.1) — a no-op for OE transactions whose snapshot is
      always the previous block. *)

type t

val create : Brdb_storage.Catalog.t -> t

(** Current number of live (pending) transactions. *)
val pending_count : t -> int

(** [begin_txn] allocates a txid; rejects duplicate global identifiers
    (including ids of already finished transactions). *)
val begin_txn :
  t ->
  global_id:string ->
  client:string ->
  ?description:string ->
  snapshot_height:int ->
  unit ->
  (Txn.t, [ `Duplicate_txid ]) result

val find : t -> int -> Txn.t option

val find_by_global : t -> string -> Txn.t option

val pending : t -> Txn.t list

(** {2 Commit-entry checks} — each returns the abort reason, if any. *)

val check_lost_update : t -> Txn.t -> Txn.abort_reason option

(** [check_unique t txn ~height] validates unique columns of all versions
    the transaction created against the state visible at [height]
    (which includes transactions of the same block committed earlier). *)
val check_unique : t -> Txn.t -> height:int -> Txn.abort_reason option

(** [check_stale_phantom t txn ~upto_height] compares the transaction's
    reads and predicates against every block in
    [(txn.snapshot_height, upto_height]]. *)
val check_stale_phantom : t -> Txn.t -> upto_height:int -> Txn.abort_reason option

(** {2 Materialization} *)

(** [other_claimants t txn] — pending transactions that also claimed a
    version [txn] claimed; they lose the ww-conflict when [txn] commits. *)
val other_claimants : t -> Txn.t -> Txn.t list

(** [commit t txn ~height] stamps creator/deleter blocks and xmax fields.
    The caller has run all checks and resolved ww-claims. *)
val commit : t -> Txn.t -> height:int -> unit

val abort : t -> Txn.t -> Txn.abort_reason -> unit

(** Canonical per-write entry strings (["<gid>|<op>|<table>|<values>"])
    of a list of (committed) transactions, in order — the Merkle leaves
    of the per-block write-set root, which provenance proofs open. The
    root, [Merkle.root (write_set_entries t txns)], is the per-block
    write-set hash of the checkpointing phase (§3.3.4). *)
val write_set_entries : t -> Txn.t list -> string list

(** Physically reverse a commit (recovery §3.6 case (b)): un-stamp the
    creator/deleter blocks and hide the created versions. The transaction
    record is reset to [Pending] with empty sets so the block can be
    re-executed from scratch. *)
val rollback_committed : t -> Txn.t -> unit

(** Remove a transaction entirely, releasing its global id so a recovery
    re-execution can begin it afresh. *)
val release : t -> Txn.t -> unit

(** Drop bookkeeping for finished transactions of blocks at or below
    [below_height] (their effects stay in the heap). *)
val forget_finished : t -> below_height:int -> unit

(** {2 Snapshot support (DESIGN.md §11)} *)

(** The next txid this manager would allocate. Carried in snapshots so a
    bootstrapped node allocates the same txids (pgledger rows, write-set
    digests) as a replaying node. *)
val next_txid : t -> int

(** Every global id ever begun, with its txid, sorted by global id —
    duplicate-identifier rejection must survive a snapshot bootstrap. *)
val export_globals : t -> (string * int) list

(** [restore_globals t ~next_txid globals] resets the manager to a
    quiescent state holding exactly [globals] (no live transactions). *)
val restore_globals : t -> next_txid:int -> (string * int) list -> unit
