(** Builds the rw-antidependency graph for a set of transactions from
    their recorded read/write/predicate sets (§3.3/§3.4 commit phase).

    An edge [R --rw--> W] is added when [R <> W] and:
    - [W] claimed (updated/deleted) a version [R] read, or
    - [W] created a version whose values fall under one of [R]'s scan
      predicates (the phantom case — [R] could not have seen it). A
      created version whose table is gone or whose vid was pruned falls
      under no predicate.

    Like PostgreSQL's SIREAD locks (Ports & Grittner), conflicts are
    found by lookup, not by comparing transactions pairwise. One pass
    over the set builds two indexes:
    - a {e claims index} from each claimed [(table, vid)] to its
      claimers, probed with every reader's [reads] — skipped entirely
      when nothing was claimed;
    - a {e creations index} from each table to the versions created in
      it, each decoded once, scanned by every predicate on that table.

    The cost is O(reads + claims + creations × same-table predicates),
    not O(n²) pair checks. The edge set is defined by the pairwise
    reference detector in [test/ssi_oracle.ml]; a qcheck property checks
    the two agree on random SQL workloads.

    Only conflicts among the given transactions are considered;
    conflicts against already-checkpointed history are handled separately
    by {!Brdb_txn.Manager.check_stale_phantom}. *)

val compute :
  Brdb_storage.Catalog.t -> Brdb_txn.Txn.t list -> Graph.t
