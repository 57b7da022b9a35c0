(** Builds the rw-antidependency graph for a set of transactions from
    their recorded read/write/predicate sets.

    An edge [R --rw--> W] is added when:
    - [W] claimed (updated/deleted) a version [R] read, or
    - [W] created a version whose values fall under one of [R]'s scan
      predicates (the phantom case — [R] could not have seen it).

    Only pairwise conflicts among the given transactions are considered;
    conflicts against already-checkpointed history are handled separately
    by {!Brdb_txn.Manager.check_stale_phantom}. *)

val compute :
  Brdb_storage.Catalog.t -> Brdb_txn.Txn.t list -> Graph.t
