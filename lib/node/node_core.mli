(** A database peer node, without networking or timing: catalog, MVCC
    engine, smart-contract runtime, block processor for both flows, the
    Ethereum-style serial baseline, and the §3.6 recovery protocol.

    The {!Peer} module wraps this with the simulated network and the
    cost model; tests drive it directly. *)

type flow =
  | Order_execute  (** §3.3: execute after ordering, previous-block snapshot *)
  | Execute_order  (** §3.4: pre-execute at client snapshot, block-aware SSI *)
  | Serial_baseline  (** §5.1: Ethereum-style one-at-a-time execution *)

type config = {
  name : string;  (** network node name, e.g. ["db-org1"] *)
  org : string;
  flow : flow;
      (** {!Execute_order} also restricts contract predicate reads to
          index lookups (§4.3) *)
  orgs : string list;  (** all organizations (governance quorum) *)
  atomic_commit : bool;
      (** §3.6 remark: commit the whole block as one atomic unit. Commit
          decisions are unchanged; on a crash, either the entire block is
          durable or none of it is, so recovery never sees a partially
          committed block and always takes the simple re-execute path. *)
}

(** [config] with [atomic_commit = false] unless given. *)
val make_config :
  name:string ->
  org:string ->
  flow:flow ->
  ?atomic_commit:bool ->
  orgs:string list ->
  unit ->
  config

type tx_status =
  | S_committed
  | S_aborted of Brdb_txn.Txn.abort_reason
  | S_rejected of string
      (** never executed: bad signature, duplicate id, … *)

type block_result = {
  br_height : int;
  br_statuses : (string * tx_status) list;  (** tx_id, status — block order *)
  br_write_set_hash : string;
  br_missing : int;  (** EO: transactions the block processor had to execute *)
  br_waves : int array;
      (** wave index per block position (0-based, ascending commit
          order): {!Block_deps.t.waves}, the schedule the commit loop ran.
          The serial baseline puts each position in its own wave. The peer
          models wave occupancy from it; empty after recovery case (a),
          where the interrupted schedule is unrecoverable. *)
  br_fresh : bool array;
      (** per position: the contract body executed during block processing
          (OE: every accepted transaction; EO: only the missing ones) —
          these cost [tet] in the wave-execution model *)
}

type t

val create : config -> registry:Brdb_crypto.Identity.Registry.t -> t

(** Install a tracer (default {!Brdb_obs.Trace.null}). When enabled, each
    contract run emits a per-operator row-count event; tracing never
    affects execution, read sets or commit decisions. *)
val set_trace : t -> Brdb_obs.Trace.t -> unit

(** Cumulative per-operator executor counters (rows produced / versions
    visited) summed over every contract run on this node. Purely a
    function of the processed block stream, so identical across replicas;
    the peer layer republishes them as registry metrics. *)
val exec_totals : t -> Brdb_engine.Exec.stats

val catalog : t -> Brdb_storage.Catalog.t

val manager : t -> Brdb_txn.Manager.t

val block_store : t -> Brdb_ledger.Block_store.t

val identity_registry : t -> Brdb_crypto.Identity.Registry.t

(** Committed block height (0 before the first block). *)
val height : t -> int

(** Create the governance tables, seed the organizations and register the
    system contracts (§3.7). Idempotent. *)
val bootstrap : t -> unit

(** Deploy a contract directly (test/bench convenience; production
    deployments go through the governance contracts). *)
val install_contract : t -> name:string -> Brdb_contracts.Registry.body -> unit

(** EO execution phase (§3.4.1): authenticate and execute a transaction
    at its snapshot height. [Error] reasons: bad signature, duplicate id,
    snapshot above the node's current height (caller should retry after
    catching up). The transaction's outcome (including contract failure)
    is decided at commit. *)
val pre_execute : t -> Brdb_ledger.Block.tx -> (unit, string) result

(** Append the next checked block, then execute, commit and record the
    ledger bookkeeping and write-set hash, hashing no contents again. OE
    and EO commit wave by wave over the {!Block_deps} graph, each wave
    decided against pre-wave state and applied in block order (DESIGN.md
    §14), as is the WAL. [Error] on an out-of-sequence block, a broken
    chain, or orderer signatures the registry no longer accepts. *)
val process_checked : t -> Brdb_ledger.Block.checked -> (block_result, string) result

(** {!Brdb_ledger.Block.check_hash}, then {!process_checked}. *)
val process_block : t -> Brdb_ledger.Block.t -> (block_result, string) result

(** Run one [SELECT] / [PROVENANCE SELECT] (the paper's single-statement
    read path) at the committed height on a {!Brdb_txn.Txn.reader}: no
    txid, no SSI bookkeeping, no {!manager} entry. Anything else fails
    with ["read-only queries cannot modify state"] before it runs. *)
val query :
  t ->
  ?params:Brdb_storage.Value.t array ->
  string ->
  (Brdb_engine.Exec.result_set, string) result

(** [explain_analyze t ~row_cost sql] — EXPLAIN ANALYZE (DESIGN.md §10):
    execute the [SELECT] on the same snapshot reader as {!query} and
    return the plan annotated with the actual rows/visited counters plus
    a modelled per-operator time of [visited * row_cost] seconds
    (rendered in ms). Uses a private stats record so the run leaves no
    residue in {!exec_totals}, the metrics registry, traces, or any
    committed state or hash. Non-[SELECT] statements are rejected before
    they run. *)
val explain_analyze :
  t ->
  ?params:Brdb_storage.Value.t array ->
  row_cost:float ->
  string ->
  (string * Brdb_engine.Exec.stats, string) result

(** Install the simulated per-contract transaction-execution-time model
    used by the [sys.transactions] view's [tet_ms] column (the peer layer
    wires this to {!Brdb_sim.Cost_model}; defaults to 0). *)
val set_tet_model : t -> (string -> float) -> unit

(** Per-block critical-path analysis: the rw/ww dependency DAG of each
    processed block, weighted with the installed cost model and folded by
    {!Brdb_obs.Critical_path.analyze}. Pure function of (block stream,
    cost model), so every replica that processed a block holds the same
    entry; backs [sys.critical_path] and the bench profiler. Replaced
    wholesale when §3.6 recovery re-executes a block. *)
type cp_entry = {
  cp_txs : int;  (** transactions in the block *)
  cp_edge_count : int;  (** dependency edges (rw + ww, deduplicated) *)
  cp_result : Brdb_obs.Critical_path.result;
}

(** [None] above the node's processed height, and where the block's
    dependency graph is unknown: heights installed from a snapshot, and a
    height finished by §3.6 case (a) recovery (statuses from the WAL, no
    re-execution). So replicas agree on every entry both hold. *)
val critical_path : t -> height:int -> cp_entry option

(** The chained state digest this node publishes in
    [sys.blocks.state_digest]: a running hash of every committed block's
    write-set hash up to [height], stored when the height is recorded.
    Cumulative, so two diverged nodes disagree at every height from the
    first divergent block on — the monotonicity the {!Chaos} SQL
    bisection relies on. [None] above the current height and for a
    stored block whose processing a §3.6 crash interrupted, until
    {!recover} finishes it. *)
val state_digest : t -> height:int -> string option

(** The write-set hash the node recorded for the block at [height]
    ([None] above the current height). The peer layer uses it to rebuild
    checkpoint records after a snapshot install (DESIGN.md §11). *)
val write_set_hash : t -> height:int -> string option

(** The Merkle leaves behind {!write_set_hash} at [height]: canonical
    ["<gid>|<op>|<table>|<values>"] entry strings in write order (ISSUE
    10 provenance proofs). [None] above the current height and for
    heights installed from a snapshot — the provenance-proof floor. *)
val write_set_entries_at : t -> height:int -> string list option

(** {!write_set_entries_at} together with the Merkle tree they were hashed
    into when the block was recorded, so a provenance proof is served
    without rehashing the whole write set (about [n/8] retained digests
    per [n]-entry block). Same [None] cases. *)
val write_set_tree_at :
  t -> height:int -> (string list * Brdb_crypto.Merkle.tree) option

(** {2 History of chained digests}

    An append-only Merkle history tree ({!Brdb_crypto.Merkle.history})
    whose leaf [h - 1] is {!state_digest} at [h], for every recorded
    height: the provenance anchor (DESIGN.md §16). It is written with
    each height's record, so recovery, re-chaining and snapshot install
    keep it equal to {!Brdb_crypto.Merkle.root} over the digests. *)

(** Number of leaves: the highest recorded height (below {!height} only
    while a §3.6 crash has left the top block unrecorded). *)
val history_size : t -> int

(** The history root over heights [1 .. history_size t]. *)
val history_root : t -> string

(** The path from [height]'s leaf to {!history_root}: at most
    ⌈log2 (history_size t)⌉ sibling roots. Raises [Invalid_argument]
    unless [1 <= height <= history_size t]. *)
val history_path : t -> height:int -> string list

(** {2 Crash & recovery (§3.6)} *)

type crash_point =
  | Crash_after_ledger_entries
      (** step 1 done, no transaction committed *)
  | Crash_mid_commit of int
      (** the first [n] applies in commit order (wave by wave, block order
          within a wave) are done and WAL'd. Position 0 is always in wave
          0, so [n = 1] is always the block's first transaction. *)
  | Crash_before_status_step  (** all commits WAL'd, ledger statuses missing *)

(** Append a checked block and run {!process_checked}'s pipeline up to
    the crash point, leaving the node inconsistent. The serial baseline has no
    ledger step 1 and commits as it executes, so it always stops before
    the status step; {!recover} finds that block by its missing
    write-set digest and re-executes it. *)
val process_block_with_crash :
  t -> Brdb_ledger.Block.checked -> crash:crash_point -> unit

(** The §3.6 restart procedure. Returns [Some result] when a block had to
    be repaired (either by completing its status step from the WAL or by
    rolling back and re-executing it), [None] when the node was already
    consistent. *)
val recover : t -> (block_result option, string) result

(** Per-block prune of dead versions (the §7 vacuum remark): removes
    aborted versions and, when [before] is given, versions whose deleter
    committed at or below that height. Returns versions removed. *)
val prune : t -> ?before:int -> unit -> int

(** {2 State snapshots (DESIGN.md §11)} *)

(** [export_snapshot t ~compaction] captures this node's full state at
    its current height: the storage layers via
    {!Brdb_snapshot.Snapshot.capture}, plus node-layer [extra] sections
    (per-block write-set digests, the sys.transactions record log, and
    the WAL tail recovery inspects) in the snapshot codec. Deterministic:
    two nodes with identical state produce byte-identical snapshots. *)
val export_snapshot :
  t -> compaction:Brdb_snapshot.Snapshot.compaction -> Brdb_snapshot.Snapshot.t

(** [install_snapshot t snap] replaces this node's state with the
    snapshot's. Validation first (node sections decode, the per-block
    digests chain exactly to the snapshot's claimed state digest, the
    txlog names heights 1..n once each in order, blocks verify, tables
    are coherent) — [Error] leaves the node untouched.
    The mutation window is guarded by the WAL install marker: a crash
    inside it is detected by {!recover}, which resets the node to a
    clean bootstrap slate so the peer layer can fetch afresh.
    [crash_after_tables] is a test hook that simulates exactly that
    crash (storage swapped, bookkeeping and guard not finalized). *)
val install_snapshot :
  ?crash_after_tables:bool -> t -> Brdb_snapshot.Snapshot.t -> (unit, string) result

(** Hooks that reach past the public pipeline into the node's private
    per-height records; tests only. *)
module Testing : sig
  (** {!process_block}, but OE/EO commit over the waves [schedule] returns
      for the block's dependency graph instead of {!Block_deps.t.waves}.
      Any schedule in which every [sched_edges] pair [(a, b)] has
      [wave a < wave b] must give identical decisions, write-set hashes
      and state (the schedule-independence property). *)
  val process_block_scheduled :
    t ->
    Brdb_ledger.Block.t ->
    schedule:(Block_deps.t -> int array) ->
    (block_result, string) result

  (** Corrupt the recorded write-set hash at [height] and re-chain every
      recorded height above it, poisoning the published chained digest
      from [height] onwards (divergence injection for the divergence
      monitor's tests). *)
  val tamper_digest : t -> height:int -> unit

  (** The ledger description of a transaction, ["contract(arg, ...)"]
      with each argument by {!Brdb_storage.Value.to_string}. *)
  val describe_tx : Brdb_ledger.Block.tx -> string
end
