(** Raft-based crash-fault-tolerant ordering service.

    A full Raft core — randomized election timeouts, leader election,
    log replication, majority commit — replicating the stream of
    transaction / time-to-cut entries. Every orderer applies committed
    entries in log order through the same {!Assembler} as the Kafka
    service, so all orderers emit identical blocks to their connected
    peers.

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
  auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

type role = Follower | Candidate | Leader

val role : t -> role

val term : t -> int

(** The node's application layer: its cutter and blocks-cut count. *)
val assembler : t -> Assembler.t

(** Entries this node holds for want of a known leader, forwarded (or
    appended, if it wins) once one is known — backlog outside its cutter. *)
val unforwarded : t -> int

(** Times this node won an election (became leader). *)
val elections : t -> int

(** Crash the node: it stops handling messages and timers until
    {!restart}. *)
val crash : t -> unit

val restart : t -> unit

val is_crashed : t -> bool

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
