(** Kafka/ZooKeeper-style crash-fault-tolerant ordering service (§4.4).

    A simulated broker cluster assigns a total order (offsets) to
    published records and fans them out to every orderer node. Each
    orderer consumes the stream in offset order and applies it through
    the same {!Assembler} (size cap or time-to-cut records), so all
    orderers cut bit-identical blocks and deliver them to the peers
    connected to them.

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
  auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

(** The node's application layer: its cutter and blocks-cut count. *)
val assembler : t -> Assembler.t
