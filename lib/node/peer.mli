(** A database peer on the simulated network.

    Wraps {!Node_core} with:
    - message handling (transaction submission/forwarding, block delivery,
      checkpoint gossip);
    - virtual-time accounting from the calibrated {!Brdb_sim.Cost_model}
      (semantics are computed instantly in OCaml; the simulation clock
      advances by the modelled execution/commit costs);
    - per-node metrics, recorded into the shared {!Brdb_obs.Registry}
      under the peer's name ([block.received], [block.processed],
      [block.missing_txs], [phase.*_ms]; the §5 micro-metrics are read
      back from them by [Blockchain_db.summary]);
    - client notifications (the paper's LISTEN/NOTIFY channel);
    - §3.6 catch-up: a peer that detects a gap in the block stream
      (crash, partition, message loss) fetches the missing blocks from
      rotating source peers with exponential backoff, served from their
      {!Brdb_ledger.Block_store};
    - §11 snapshot bootstrap: when the gap strictly exceeds
      [snapshot_threshold], the peer instead negotiates a snapshot
      manifest, fetches content-addressed chunks (verified one by one,
      rotating away from sources that send corrupt or no data), installs
      the state atomically under the WAL guard, then switches to normal
      block catch-up for the remainder.

    Every peer charges {!Brdb_sim.Cost_model.default}, the cost model
    calibrated once against Tables 4/5. Catch-up and snapshot requests
    retry after 50 ms, doubling per fruitless attempt up to 8x. *)

type config = {
  core : Node_core.config;
  contract_class_of : string -> Brdb_sim.Cost_model.contract_class;
  orderer_target : string;  (** where EO peers forward transactions *)
  peer_names : string list;  (** every database node, including this one *)
  forward_delay_mean : float;
      (** mean middleware queueing delay before a transaction is forwarded
          to the other peers (§3.4.1's background replication); the source
          of the paper's missing-transaction counts. 0 disables it. *)
  checkpoint_interval : int;
      (** gossip a checkpoint hash every N blocks (§3.3.4: "it is not
          necessary to record a checkpoint every block"); the hash covers
          the write sets of all blocks since the previous checkpoint. *)
  sync_interval : float;
      (** period of the anti-entropy probe that lets a fully-silenced peer
          (every delivery and gossip message lost) discover missed blocks.
          0 disables it — required for drivers that run the clock until
          the event queue drains, since the probe reschedules forever. *)
  snapshot_threshold : int;
      (** a height gap strictly greater than this bootstraps from a peer
          snapshot instead of replaying blocks (DESIGN.md §11); a gap
          equal to the threshold replays. 0 disables snapshots. *)
  snapshot_chunk_size : int;
      (** bytes per snapshot transfer chunk
          ({!Brdb_snapshot.Chunk.default_size} is the usual choice). *)
  compaction : Brdb_snapshot.Snapshot.compaction;
      (** [Archive] keeps dead version chains (full PROVENANCE history);
          [Pruned] drops versions dead below [checkpoint height - margin]
          at every checkpoint, and serves pruned snapshots. *)
  parallel_validation : bool;
      (** modelled block timing only (DESIGN.md §14): every block commits
          wave by wave over its dependency graph either way. Off: one
          simulated core and the serial bet calibrated to Tables 4/5. On
          (OE/EO): {!Brdb_sim.Cpu.run_waves} packs the waves onto the cost
          model's [cores] and fills sys.validation. *)
}

type t

(** [create ~net ?obs config ~registry] — [obs] is the shared
    observability bundle ({!Brdb_obs.Obs.disabled} by default): the peer
    records per-node counters and phase histograms into its registry
    keyed by the peer's name, and — when tracing is enabled — emits block
    spans (back-dated by their modelled bpt/bet/bct costs), per-tx
    validate/commit/abort events with their {!Brdb_obs.Abort_class}, and
    catch-up/crash instants. *)
val create :
  net:Brdb_consensus.Msg.Net.net ->
  ?obs:Brdb_obs.Obs.t ->
  config ->
  registry:Brdb_crypto.Identity.Registry.t ->
  t

val core : t -> Node_core.t

val name : t -> string

val obs : t -> Brdb_obs.Obs.t

val checkpoints : t -> Brdb_ledger.Checkpoint.t

(** [on_final t f] — [f] runs whenever a transaction reaches a final
    status on this node (at the block's simulated completion time). *)
val on_final : t -> (tx_id:string -> status:Node_core.tx_status -> unit) -> unit

(** Catch-up requests sent so far: this node's [fetch.requests]
    counter. *)
val fetch_requests : t -> int

(** Blocks obtained through catch-up (rather than direct delivery): this
    node's [fetch.blocks] counter. *)
val fetched_blocks : t -> int

(** Blocks refused at admission (§4.4 authenticated delivery): failed
    hash/signature verification, an equivocating sibling for an occupied
    height, or a broken chain link at append. Each rejection arms §3.6
    catch-up so the height is re-fetched from an honest source. This
    node's [block.rejected] counter. *)
val blocks_rejected : t -> int

(** Out-of-order blocks currently buffered. Only blocks within 64
    heights of the next needed block are buffered; anything farther is
    dropped (bounded memory) and recovered by catch-up once the gap
    closes. *)
val inbox_size : t -> int

(** Snapshot bootstraps this peer has completed (the [sys.snapshots]
    row count). *)
val snapshots_installed : t -> int

(** The peer is currently down (between {!crash} and {!restart}). *)
val is_crashed : t -> bool

(** [crash t] simulates a fail-stop crash: the peer stops handling
    messages and leaves the network. [crash ~at t] instead injects a
    §3.6 mid-block crash: the peer dies at the given {!Node_core.crash_point}
    while processing its next block, leaving a partially-applied block for
    {!restart} to repair. *)
val crash : ?at:Node_core.crash_point -> t -> unit

(** Restart after a crash: runs {!Node_core.recover} (§3.6 — completing
    or rolling back and re-executing a partially-processed block from the
    block store; a crash mid-snapshot-install resets to a clean bootstrap
    slate), re-registers on the network, resumes buffered blocks, and
    catches up on whatever was missed while down (§11): via snapshot
    bootstrap only when snapshots are enabled and the gap exceeds
    [snapshot_threshold]; a gap equal to the threshold, or any gap with
    snapshots disabled, replays blocks. *)
val restart : t -> unit
