(** Raft-based crash-fault-tolerant ordering service.

    A full Raft core — randomized election timeouts, leader election,
    log replication, majority commit — replicating the stream of
    transaction / time-to-cut entries. Every orderer applies committed
    entries in log order through the same deterministic block-cutting
    logic as the Kafka service, so all orderers emit identical blocks to
    their connected peers.

    Listed by the paper (§3.1) as one of the pluggable CFT consensus
    algorithms. *)

type t

(** Election timeouts are drawn from 150–300 ms, the leader heartbeats
    every 50 ms, and each handled message costs 20 µs of modelled CPU. *)
val create :
  net:Msg.Net.net ->
  name:string ->
  names:string list ->
  identity:Brdb_crypto.Identity.t ->
  rng:Brdb_sim.Rng.t ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

type role = Follower | Candidate | Leader

val role : t -> role

val term : t -> int

val blocks_cut : t -> int

(** Transactions buffered for the next block (health plane, ISSUE 9):
    the cutter backlog this node holds right now (0 while a crashed
    Raft/Bft node is down). *)
val queued : t -> int

(** Times this node won an election (became leader). *)
val elections : t -> int

(** Crash the node: it stops handling messages and timers until
    {!restart}. *)
val crash : t -> unit

val restart : t -> unit

val is_crashed : t -> bool

(** Batch-authentication counters (ISSUE 10): transactions verified /
    dropped at cut time, and duplicate ids observed (replay protection).
    All 0 when no [auth] verifier was installed. *)
val auth_verified : t -> int

val auth_rejected : t -> int

val replays : t -> int

(** Inspectors over the replicated log, which the ordering service never
    reads; tests use them to check election and replication. *)
module Testing : sig
  (** The leader this node last heard from ([Some] own name when
      leading, [None] after a crash until the next heartbeat). *)
  val leader_hint : t -> string option

  (** Highest log index known to be stored on a majority. *)
  val commit_index : t -> int

  val log_length : t -> int
end
