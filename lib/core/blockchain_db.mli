(** The blockchain relational database network — public façade.

    Assembles a permissioned network (§3.7): one database peer per
    organization, a pluggable ordering service, a shared certificate
    registry, and clients that sign and submit contract invocations.
    Everything runs on a deterministic simulated clock; [run]/[settle]
    advance it.

    {[
      let net = Blockchain_db.create (Blockchain_db.default_config ()) in
      let alice = Blockchain_db.register_user net "org1/alice" in
      Blockchain_db.install_contract_source net ~name:"put"
        "INSERT INTO kv VALUES ($1, $2)" |> Result.get_ok;
      let id = Blockchain_db.submit net ~user:alice ~contract:"put"
                 ~args:[ Int 1; Int 42 ] in
      Blockchain_db.settle net;
      assert (Blockchain_db.status net id = Some Blockchain_db.Committed)
    ]} *)

module Value = Brdb_storage.Value
module Node_core = Brdb_node.Node_core

type config = {
  orgs : string list;  (** one database node per organization *)
  flow : Node_core.flow;
  ordering : Brdb_consensus.Service.kind;
  n_orderers : int;
  block_size : int;
  block_timeout : float;  (** seconds *)
  link : Brdb_sim.Network.link;  (** LAN or WAN deployment (§5.3) *)
  contract_class_of : string -> Brdb_sim.Cost_model.contract_class;
  forward_delay_mean : float;  (** EO middleware replication delay (s) *)
  seed : int;
  tracing : bool;
      (** record a deterministic trace (spans for submit → order →
          execute → validate → commit, exportable via {!Brdb_obs.Export});
          off by default and guaranteed side-effect-free: enabling it
          changes no committed state, hash, or cost-model output. *)
  snapshot_threshold : int;
      (** a restarting/lagging peer whose height gap strictly exceeds
          this bootstraps from a chunked, Merkle-verified peer snapshot
          instead of replaying every block (DESIGN.md §11); a gap equal
          to the threshold replays. 0 (the default) disables snapshots. *)
  compaction : Brdb_snapshot.Snapshot.compaction;
      (** per-node version-chain retention (§11): [Archive] (default)
          keeps dead version chains — full PROVENANCE history; [Pruned]
          drops chains dead below checkpoint - margin at every
          checkpoint, bounding resident row-versions. *)
  parallel_validation : bool;
      (** modelled timing of wave-scheduled validation (DESIGN.md §14),
          passed to every peer's {!Brdb_node.Peer.config}. Every block
          commits over the topological waves of its dependency DAG either
          way; on, the peers charge those waves to the cost model's
          [cores] slots instead of one core. Off by default. Commit/abort
          decisions, write-set hashes and per-block state digests are
          byte-identical either way; only the modelled block-validation
          time and the sys.validation / validation.* metrics change. *)
}

(** 3 orgs, order-then-execute, solo orderer, block size 100, 1 s timeout,
    LAN links — a convenient playground. *)
val default_config : unit -> config

type t

(** [create config] starts the network. What [config] does not name is
    fixed: every peer charges {!Brdb_sim.Cost_model.default} (calibrated
    once against Tables 4/5), the shared {!health} engine ticks every
    0.1 simulated seconds, and every orderer verifies submission
    signatures against {!registry} in deterministic batches at cut time,
    dropping forgeries ([auth.*] metrics). Health ticks only read state
    and draw no rng, so they never change committed state, hashes or
    decisions. *)
val create : config -> t

val clock : t -> Brdb_sim.Clock.t

(** The shared simulated network — fault injection
    ({!Brdb_consensus.Msg.Net.set_fault}, [partition]/[heal]) and message
    stats hang off this handle. *)
val net : t -> Brdb_consensus.Msg.Net.net

(** The ordering service handle — for crashing/restarting orderer nodes
    and reading consensus-plane counters (chaos, CLI). *)
val service : t -> Brdb_consensus.Service.t

val peers : t -> Brdb_node.Peer.t list

val peer : t -> int -> Brdb_node.Peer.t

(** The shared certificate registry (every node holds an identical copy
    in a real deployment). *)
val registry : t -> Brdb_crypto.Identity.Registry.t

(** [register_user t "org1/alice"] creates an identity and registers its
    public key with every node (bootstrap-time onboarding; runtime
    onboarding goes through the [create_user] system contract). *)
val register_user : t -> string -> Brdb_crypto.Identity.t

(** Admin identity for an organization (pre-registered at startup). *)
val admin : t -> string -> Brdb_crypto.Identity.t

(** Install a native contract on every node (bootstrap-time; runtime
    deployments go through the governance contracts). *)
val install_contract : t -> name:string -> Brdb_contracts.Registry.body -> unit

(** Parse + determinism-check + install a procedural contract. *)
val install_contract_source : t -> name:string -> string -> (unit, string) result

type final_status = Committed | Aborted of string | Rejected of string

(** [submit t ~user ~contract ~args] signs and submits a transaction
    (routing depends on the flow: to the ordering service for OE, to a
    database peer for EO) and returns its id. *)
val submit :
  t ->
  user:Brdb_crypto.Identity.t ->
  contract:string ->
  args:Value.t list ->
  string

(** Pinned submission for the client plane (ISSUE 10): sign and submit
    to the [peer]-th database peer with the execution snapshot forced to
    [snapshot] (the session's begin height) instead of the peer's current
    height. EO flow only — raises [Invalid_argument] otherwise. *)
val submit_at :
  t ->
  user:Brdb_crypto.Identity.t ->
  contract:string ->
  args:Value.t list ->
  peer:int ->
  snapshot:int ->
  string

(** One client-plane session as a [sys.clients] row. *)
type client_row = {
  cr_session : string;
  cr_user : string;
  cr_peer : string;  (** name of the session's database peer *)
  cr_status : string;
  cr_pinned_height : int;
  cr_reads_pinned : int;
  cr_submitted : int;
  cr_early_aborts : int;
  cr_receipts_verified : int;
}

(** Install the [sys.clients] rows provider (called by the
    {!Brdb_client} hub; the view reads empty until then), rows in
    session-id order. Registration happens here so the sys.* schema stays
    within the provider layers. *)
val set_client_rows_provider : t -> (unit -> client_row list) -> unit

(** Majority status of a transaction ([None] while undecided). *)
val status : t -> string -> final_status option

(** The LISTEN/NOTIFY analogue (§2.7): [f] fires once per transaction, at
    the simulated time its majority decision is reached. *)
val on_decided : t -> (tx_id:string -> final_status -> unit) -> unit

(** Advance simulated time by [seconds]. *)
val run : t -> seconds:float -> unit

(** Run until every submitted transaction has a majority decision (plus a
    short grace period for block/checkpoint propagation). Bounded even
    under consensus services with perpetual timers. *)
val settle : t -> unit

(** Read-only SQL (including [PROVENANCE SELECT]) against one node at its
    committed height; DML/DDL is rejected before it runs, leaving no residue. *)
val query :
  t -> ?node:int -> ?params:Value.t array -> string ->
  (Brdb_engine.Exec.result_set, string) result

(** [explain_analyze t sql] — EXPLAIN ANALYZE against one node
    (DESIGN.md §10): runs the [SELECT] on {!query}'s snapshot reader
    and returns the plan annotated with actual rows/visited
    counts and per-operator times modelled from the cost model
    ([tet_simple] per ~100 visited versions — never the wall clock),
    plus the raw executor counters. Leaves no residue in any state,
    hash, metric or trace. *)
val explain_analyze :
  t -> ?node:int -> ?params:Value.t array -> string ->
  (string * Brdb_engine.Exec.stats, string) result

(** §3.5(5): run the query on every node and cross-check the answers — the
    paper's defence against a single node tampering with query results.
    Returns the answer that more than half of the nodes give, plus the
    names of the nodes that answered otherwise. When no answer has a
    strict majority (three different answers on three nodes, a 2–2 split
    on four), it returns [Error] listing the nodes behind each answer, in
    node order, rather than picking one of the tied answers. *)
val verified_query :
  t -> ?params:Value.t array -> string ->
  (Brdb_engine.Exec.result_set * string list, string) result

(** A run's §5 metrics (Tables 4/5): cluster-level throughput and latency
    plus node 0's micro-metrics. *)
type summary = {
  committed : int;  (** [decided.committed] *)
  aborted : int;  (** [decided.aborted] + [decided.rejected] *)
  throughput_tps : float;  (** committed / duration *)
  avg_latency_s : float;  (** mean of [decided.latency_s] *)
  brr : float;  (** blocks received / s *)
  bpr : float;  (** blocks processed / s *)
  bpt_ms : float;  (** mean block processing time *)
  bet_ms : float;  (** mean block execution time *)
  bct_ms : float;  (** mean block commit time *)
  tet_ms : float;  (** mean transaction execution time *)
  mt_per_s : float;  (** missing transactions per second (EO) *)
  su_percent : float;  (** system utilization: bpr * bpt *)
}

(** [summary t ~duration_s] is a read-only view of the registry: the
    cluster's [decided.*] counters and [decided.latency_s] histogram, and
    node 0's [block.received], [block.processed], [block.missing_txs] and
    [phase.*_ms] metrics, with rates taken over [duration_s]. *)
val summary : t -> duration_s:float -> summary

(** The deployment's observability bundle: the shared metrics registry
    (per-node and cluster views over txn/abort/block/fetch counters and
    phase histograms) and the tracer ({!Brdb_obs.Trace.null} unless
    [config.tracing]). *)
val obs : t -> Brdb_obs.Obs.t

(** The deployment's shared health engine (ISSUE 9): one instance for
    the whole cluster, ticked on the simulated clock, served by every
    node's [sys.alerts]/[sys.detectors] views — so the alert stream is
    byte-identical across nodes by construction. *)
val health : t -> Brdb_obs.Health.t

(** Alert log so far, oldest first ([Health.alerts (health t)]). *)
val alerts : t -> Brdb_obs.Health.alert list

(** Trace events recorded so far (empty unless [config.tracing]); also
    refreshes the registry's network/orderer gauges. *)
val trace_events : t -> Brdb_obs.Trace.event list
