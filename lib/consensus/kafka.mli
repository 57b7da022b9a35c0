(** Kafka/ZooKeeper-style crash-fault-tolerant ordering service (§4.4).

    A simulated broker cluster assigns a total order (offsets) to
    published records and fans them out to every orderer node. Each
    orderer consumes the stream in offset order and runs the identical
    deterministic block-cutting logic (size cap or time-to-cut records),
    so all orderers cut bit-identical blocks and deliver them to the
    peers connected to them.

    Broker capacity is modelled as a serial CPU cost per published
    record — the reason Fig. 8(b)'s Kafka curve is flat in the number of
    orderer nodes. *)

type cluster

(** [create_cluster ~net ~name ~orderers ()] — each published record
    costs the broker 0.3 ms of CPU (≈3300 records/s ceiling). *)
val create_cluster :
  net:Msg.Net.net ->
  name:string ->
  orderers:string list ->
  unit ->
  cluster

type t

val create_orderer :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  cluster:string ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

val blocks_cut : t -> int

(** Transactions buffered for the next block (health plane, ISSUE 9):
    the cutter backlog this node holds right now (0 while a crashed
    Raft/Bft node is down). *)
val queued : t -> int

(** Batch-authentication counters (ISSUE 10): transactions verified /
    dropped at cut time, and duplicate ids observed (replay protection).
    All 0 when no [auth] verifier was installed. *)
val auth_verified : t -> int

val auth_rejected : t -> int

val replays : t -> int
