(** Deterministic state snapshots (DESIGN.md §11).

    A snapshot is a canonical serialization of everything a node computes
    from the block stream at a checkpoint height [h]: the catalog with
    every table's version chains ([xmin]/[xmax]/[creator_block]/
    [deleter_block] preserved, so PROVENANCE queries still work after a
    bootstrap), the ledger table, the block store, the contract registry
    (procedural contracts by source), the transaction-manager counters
    needed for replay equivalence (next txid, global-id map), and opaque
    node-layer sections (per-block digests, sys.* records, WAL tail).

    Determinism contract: capture iterates tables in sorted-name order and
    heaps in vid order, values use {!Brdb_storage.Value.encode}, and the
    codec is canonical — two nodes with equal state at [h] produce
    byte-identical snapshots, which is what makes chunk content addresses
    and the manifest Merkle root comparable across sources. *)

type compaction =
  | Archive  (** keep dead version chains below the snapshot height *)
  | Pruned  (** drop versions invisible at (and after) the height *)

val compaction_to_string : compaction -> string

type table_state = {
  ts_name : string;
  ts_columns : Brdb_storage.Schema.column list;
  ts_slots : Brdb_storage.Version.t option array;  (** vid = slot index *)
  ts_indexes : (int * bool) list;  (** (column, unique) *)
  ts_pruned : int;
}

type t = {
  height : int;
  state_digest : string;  (** chained state digest at [height] *)
  compaction : compaction;
  next_txid : int;
  globals : (string * int) list;  (** global id -> txid, sorted *)
  contract_next_version : int;
  contracts : (string * int * string) list;  (** (name, version, source) *)
  blocks : Brdb_ledger.Block.t list;
      (** heights 1..[height]. The hash is not encoded: {!decode} leaves
          each [hash] empty, so read the blocks only through {!install},
          which derives the hashes and refuses a non-empty one that does
          not match its contents. *)
  tables : table_state list;  (** sorted by name; includes pgledger *)
  extra : (string * string) list;  (** named node-layer sections, sorted *)
}

(** [capture] snapshots live state at the store's current height (which
    must equal [height]). In-flight (uncommitted) versions are dropped:
    only settled state travels; their transactions re-execute from blocks
    on the installing node. [Pruned] additionally drops versions dead at
    [height] outside pgledger, counting them into [ts_pruned]. The
    returned value shares no mutable state with the node. *)
val capture :
  catalog:Brdb_storage.Catalog.t ->
  store:Brdb_ledger.Block_store.t ->
  contracts:Brdb_contracts.Registry.t ->
  manager:Brdb_txn.Manager.t ->
  height:int ->
  state_digest:string ->
  compaction:compaction ->
  ?extra:(string * string) list ->
  unit ->
  t

(** Canonical byte encoding (the payload {!Chunk.split} chunks). *)
val encode : t -> string

val decode : string -> (t, string) result

val find_extra : t -> string -> string option

(** [install] replaces the storage-level state of a node with the
    snapshot's. Phase 1 validates everything off to the side — block
    chain + signatures (against [identities]), schemas, version-chain /
    visibility-index coherence, contract sources — and returns [Error]
    without touching live state. Phase 2 (infallible) swaps tables,
    restores the block store, and resets contracts and manager counters.
    Node-layer [extra] sections are the caller's to apply, under its WAL
    install guard. *)
val install :
  catalog:Brdb_storage.Catalog.t ->
  store:Brdb_ledger.Block_store.t ->
  contracts:Brdb_contracts.Registry.t ->
  manager:Brdb_txn.Manager.t ->
  identities:Brdb_crypto.Identity.Registry.t ->
  t ->
  (unit, string) result

(** Number of materialized row versions the snapshot carries (the
    resident-memory figure the bootstrap bench reports). *)
val resident_versions : t -> int
